package mlp

import (
	"math/rand"
	"time"

	"elevprivacy/internal/ml/linalg"
)

// Batched training loops. The old trainer walked the minibatch one sample
// at a time, re-reading both weight matrices from memory for every sample;
// these loops run the whole minibatch through fused matrix kernels, so the
// weights stream through the cache once per batch instead of once per
// sample. The input layer reads the CSR minibatch directly and never sees
// a zero feature. The float64 path is bit-identical to the per-sample
// loop: every gradient cell is a distinct accumulator, and the kernels add
// its per-sample terms in ascending sample order — the order the old loop
// used — so the sums round identically. The float32 path trades that
// parity for another halving of memory traffic (see Config.Float32).

// trainView reslices a full-batch scratch matrix down to the live rows of
// a (possibly short, final) minibatch.
func trainView(m *linalg.Matrix, rows int) *linalg.Matrix {
	return &linalg.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
}

func trainView32(m *linalg.Matrix32, rows int) *linalg.Matrix32 {
	return &linalg.Matrix32{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
}

// fit64 is the float64 trainer. rng arrives having consumed the He-init
// draws, matching the old trainer's stream position, so shuffles are
// reproduced draw for draw.
func (m *MLP) fit64(sp *linalg.SparseMatrix, y []int, rng *rand.Rand) error {
	n := len(y)
	h, d, k := m.cfg.Hidden, m.dim, m.cfg.Classes
	bs := m.cfg.BatchSize
	if bs > n {
		bs = n
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	// One flat gradient vector, viewed as the four parameter regions. The
	// dense kernels overwrite their region every batch; the sparse W1
	// accumulation instead relies on its region being zero at batch start
	// and re-clears the touched rows after the optimizer step.
	grads := make([]float64, len(m.params))
	gW1 := &linalg.Matrix{Rows: h, Cols: d, Data: grads[m.w1:m.b1]}
	gB1 := grads[m.b1:m.w2]
	gW2 := &linalg.Matrix{Rows: k, Cols: h, Data: grads[m.w2:m.b2]}
	gB2 := grads[m.b2:]

	// Per-fit batch scratch, reused across every minibatch.
	spb := &linalg.SparseMatrix{}
	hid := linalg.NewMatrix(bs, h)
	probs := linalg.NewMatrix(bs, k)
	dh := linalg.NewMatrix(bs, h)

	w1, w2 := m.weight1(), m.weight2()
	bias1, bias2 := m.params[m.b1:m.w2], m.params[m.b2:]

	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		epochStart := time.Now()
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += m.cfg.BatchSize {
			end := start + m.cfg.BatchSize
			if end > n {
				end = n
			}
			batch := order[start:end]
			bn := len(batch)

			hv := trainView(hid, bn)
			pv := trainView(probs, bn)
			dv := trainView(dh, bn)

			// Forward: H = ReLU(X·W1ᵀ + b1), P = softmax(H·W2ᵀ + b2).
			sp.GatherRowsInto(batch, spb)
			linalg.SparseAffineTInto(spb, w1, bias1, hv)
			linalg.ReLURows(hv)
			linalg.AffineTInto(hv, w2, bias2, pv)
			linalg.SoftmaxRows(pv)

			// Backward. P becomes the output deltas in place.
			for i, idx := range batch {
				pv.Row(i)[y[idx]]--
			}
			linalg.MatTMulInto(pv, hv, gW2)
			linalg.ColSumsInto(pv, gB2)
			linalg.MatMulInto(pv, w2, dv)
			linalg.ZeroWhereNonPos(dv, hv)
			linalg.ColSumsInto(dv, gB1)
			sparseGradW1(spb, dv, gW1)

			// Fused scale + update (identical numbers to Scale then Step).
			stepStart := time.Now()
			m.adam.StepSum(m.params, [][]float64{grads}, 1/float64(bn))
			adamStepSeconds.ObserveSince(stepStart)

			clearSparseGradW1(dv, gW1)
		}
		epochSeconds.ObserveSince(epochStart)
	}
	return nil
}

// sparseGradW1 accumulates the first-layer weight gradient from a CSR
// minibatch: gW1[j][c] += Σ_i dh[i][j]·x[i][c] over stored nonzeros only,
// ascending sample order per cell. gW1 must be zero on entry; the result
// is bit-identical to MatTMulInto(dh, dense(x), gW1) because the skipped
// zero-feature terms contribute exact-zero products, which are identity
// adds on accumulators that are never -0.0 here. The unit loop runs
// outermost so each gradient row stays cache-resident while the whole
// batch scatters into it; per-cell terms still add in ascending i.
func sparseGradW1(sp *linalg.SparseMatrix, dh *linalg.Matrix, gW1 *linalg.Matrix) {
	for j := 0; j < dh.Cols; j++ {
		gRow := gW1.Row(j)
		for i := 0; i < sp.Rows; i++ {
			g := dh.At(i, j)
			if g == 0 { // gated unit: terms would be ±0, identity adds
				continue
			}
			cols, vals := sp.RowNZ(i)
			for t, c := range cols {
				gRow[c] += g * vals[t]
			}
		}
	}
}

// clearSparseGradW1 restores gW1's all-zero invariant after a batch: every
// row an ungated unit scattered into is wiped whole with a sequential
// clear, which beats re-walking the batch's column indices cell by cell —
// and the rows of gated-everywhere units are skipped entirely, keeping the
// wipe off the O(hidden·dim) full-matrix cost. Untouched cells in a wiped
// row are already +0.0, so overwriting them with +0.0 changes nothing.
func clearSparseGradW1(dh *linalg.Matrix, gW1 *linalg.Matrix) {
	for j := 0; j < dh.Cols; j++ {
		for i := 0; i < dh.Rows; i++ {
			if dh.At(i, j) != 0 {
				linalg.Zero(gW1.Row(j))
				break
			}
		}
	}
}

// fit32 is the reduced-precision trainer: float32 shadow weights feed
// float32 forward/backward kernels, the Adam32 optimizer keeps float32
// moments against float64 master parameters, and the shadow is refreshed
// from the masters after every step so narrowing error never compounds.
// Batch schedule, shuffle stream, and He init are identical to fit64 —
// only the arithmetic narrows.
func (m *MLP) fit32(sp *linalg.SparseMatrix, y []int, rng *rand.Rand) error {
	n := len(y)
	h, d, k := m.cfg.Hidden, m.dim, m.cfg.Classes
	bs := m.cfg.BatchSize
	if bs > n {
		bs = n
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	// Float32 shadows of the parameter and gradient vectors, sharing the
	// flat layout (and so the w1/b1/w2/b2 offsets) of the masters.
	params32 := make([]float32, len(m.params))
	linalg.Convert32(params32, m.params)
	grads32 := make([]float32, len(m.params))
	w1s := &linalg.Matrix32{Rows: h, Cols: d, Data: params32[m.w1:m.b1]}
	w2s := &linalg.Matrix32{Rows: k, Cols: h, Data: params32[m.w2:m.b2]}
	bias1s, bias2s := params32[m.b1:m.w2], params32[m.b2:]
	gW1s := &linalg.Matrix32{Rows: h, Cols: d, Data: grads32[m.w1:m.b1]}
	gB1s := grads32[m.b1:m.w2]
	gW2s := &linalg.Matrix32{Rows: k, Cols: h, Data: grads32[m.w2:m.b2]}
	gB2s := grads32[m.b2:]

	spb := &linalg.SparseMatrix{}
	hid := linalg.NewMatrix32(bs, h)
	probs := linalg.NewMatrix32(bs, k)
	dh := linalg.NewMatrix32(bs, h)

	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		epochStart := time.Now()
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += m.cfg.BatchSize {
			end := start + m.cfg.BatchSize
			if end > n {
				end = n
			}
			batch := order[start:end]
			bn := len(batch)

			hv := trainView32(hid, bn)
			pv := trainView32(probs, bn)
			dv := trainView32(dh, bn)

			sp.GatherRowsInto(batch, spb)
			linalg.SparseAffineT32Into(spb, w1s, bias1s, hv)
			linalg.ReLURows32(hv)
			linalg.AffineT32Into(hv, w2s, bias2s, pv)
			linalg.SoftmaxRows32(pv)

			for i, idx := range batch {
				pv.Row(i)[y[idx]]--
			}
			linalg.MatTMul32Into(pv, hv, gW2s)
			linalg.ColSums32Into(pv, gB2s)
			linalg.MatMul32Into(pv, w2s, dv)
			linalg.ZeroWhereNonPos32(dv, hv)
			linalg.ColSums32Into(dv, gB1s)
			sparseGradW1f32(spb, dv, gW1s)

			// The shadow refresh rides inside the step: every updated
			// float64 master is re-narrowed into params32 in the same pass,
			// so narrowing error never compounds across steps.
			stepStart := time.Now()
			m.adam32.StepSum(m.params, params32, [][]float32{grads32}, 1/float32(bn))
			adamStepSeconds.ObserveSince(stepStart)

			clearSparseGradW1f32(dv, gW1s)
		}
		epochSeconds.ObserveSince(epochStart)
	}
	return nil
}

// sparseGradW1f32 is sparseGradW1 against the float32 gradient shadow,
// narrowing each stored feature value as it is consumed.
func sparseGradW1f32(sp *linalg.SparseMatrix, dh *linalg.Matrix32, gW1 *linalg.Matrix32) {
	for j := 0; j < dh.Cols; j++ {
		gRow := gW1.Row(j)
		for i := 0; i < sp.Rows; i++ {
			g := dh.At(i, j)
			if g == 0 {
				continue
			}
			cols, vals := sp.RowNZ(i)
			for t, c := range cols {
				gRow[c] += g * float32(vals[t])
			}
		}
	}
}

func clearSparseGradW1f32(dh *linalg.Matrix32, gW1 *linalg.Matrix32) {
	for j := 0; j < dh.Cols; j++ {
		for i := 0; i < dh.Rows; i++ {
			if dh.At(i, j) != 0 {
				linalg.Zero32(gW1.Row(j))
				break
			}
		}
	}
}
