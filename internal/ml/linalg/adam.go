package linalg

import (
	"fmt"
	"math"
)

// Adam is the Adam stochastic optimizer (Kingma & Ba, 2014), the weight
// optimizer the paper uses for both MLP and CNN training.
type Adam struct {
	// LR is the learning rate; mutable between steps for fine-tuning
	// schedules that lower the rate in later rounds.
	LR float64

	beta1 float64
	beta2 float64
	eps   float64

	m []float64 // first-moment estimate
	v []float64 // second-moment estimate
	t int       // step count
}

// NewAdam creates an optimizer for a parameter vector of the given size
// with the canonical defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
func NewAdam(size int, lr float64) (*Adam, error) {
	if size <= 0 {
		return nil, fmt.Errorf("linalg: adam size %d", size)
	}
	if lr <= 0 {
		return nil, fmt.Errorf("linalg: adam learning rate %g", lr)
	}
	return &Adam{
		LR:    lr,
		beta1: 0.9,
		beta2: 0.999,
		eps:   1e-8,
		m:     make([]float64, size),
		v:     make([]float64, size),
	}, nil
}

// Step applies one bias-corrected Adam update: params -= lr * m̂/(√v̂+ε).
func (a *Adam) Step(params, grads []float64) {
	if len(params) != len(a.m) || len(grads) != len(a.m) {
		panic(fmt.Sprintf("linalg: adam size mismatch: state %d, params %d, grads %d",
			len(a.m), len(params), len(grads)))
	}
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, g := range grads {
		a.m[i] = a.beta1*a.m[i] + (1-a.beta1)*g
		a.v[i] = a.beta2*a.v[i] + (1-a.beta2)*g*g
		mHat := a.m[i] / c1
		vHat := a.v[i] / c2
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.eps)
	}
}

// StepSum applies one Adam update from sharded gradients: the effective
// gradient is scale·Σ parts[w][i], summed in shard order. It fuses the
// reduce, the 1/batch scaling, and the moment update into a single pass,
// replacing the Zero/Axpy/Scale/Step sequence minibatch loops used to run —
// and produces bit-identical results to that sequence, since the shard-order
// sum and the scale multiply happen in the same order.
//
// This update is the serial floor of every training path (three divides and
// a square root per parameter, each batch), so the loop is written for the
// divider unit and nothing else: moment slices and β constants are hoisted
// into locals pinned to len(params) (one field load and one bounds check per
// slice instead of per element), the stored moments are kept in registers
// for the bias correction instead of re-read, and the ubiquitous one-shard
// call skips the shard reduce loop. Every arithmetic op, in order, is the
// same as the naive loop's, so the results stay bit-identical.
func (a *Adam) StepSum(params []float64, parts [][]float64, scale float64) {
	if len(params) != len(a.m) {
		panic(fmt.Sprintf("linalg: adam size mismatch: state %d, params %d", len(a.m), len(params)))
	}
	for w, p := range parts {
		if len(p) != len(a.m) {
			panic(fmt.Sprintf("linalg: adam size mismatch: state %d, grad shard %d has %d", len(a.m), w, len(p)))
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	n := len(params)
	m, v := a.m[:n], a.v[:n]
	beta1, beta2, lr, eps := a.beta1, a.beta2, a.LR, a.eps
	omb1, omb2 := 1-beta1, 1-beta2
	if len(parts) == 1 {
		p := parts[0][:n]
		for i := range params {
			var g float64
			g += p[i]
			g *= scale
			mi := beta1*m[i] + omb1*g
			vi := beta2*v[i] + omb2*g*g
			m[i], v[i] = mi, vi
			params[i] -= lr * (mi / c1) / (math.Sqrt(vi/c2) + eps)
		}
		return
	}
	for i := range params {
		var g float64
		for _, p := range parts {
			g += p[i]
		}
		g *= scale
		mi := beta1*m[i] + omb1*g
		vi := beta2*v[i] + omb2*g*g
		m[i], v[i] = mi, vi
		params[i] -= lr * (mi / c1) / (math.Sqrt(vi/c2) + eps)
	}
}

// Reset clears the moment estimates and step count, keeping the size.
func (a *Adam) Reset() {
	Zero(a.m)
	Zero(a.v)
	a.t = 0
}

// Adam32 is the reduced-precision optimizer for the float32 training path:
// float32 moment estimates updated with float32 arithmetic, applied to
// float64 master parameters (kept wide so update round-off does not
// compound across steps — the master-copy shape of Micikevicius et al.,
// arXiv:1710.03740). Unlike Adam.StepSum it makes no bit-exactness promise
// against any float64 reference — it sits on the "within stated tolerance"
// side of the precision policy — which frees it to fold the two
// bias-correction divides into reciprocal multiplies. One float32 divide
// and one float32 square root per parameter replace StepSum's three
// float64 divides and float64 square root; since the divider unit is what
// bounds the optimizer step, this (plus halved moment-state traffic) is
// where most of the float32 path's training speedup comes from.
type Adam32 struct {
	// LR is the learning rate; mutable between steps.
	LR float64

	beta1 float32
	beta2 float32
	eps   float32

	m []float32 // first-moment estimate
	v []float32 // second-moment estimate
	t int       // step count
}

// NewAdam32 creates a reduced-precision optimizer for a parameter vector of
// the given size with the canonical defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
func NewAdam32(size int, lr float64) (*Adam32, error) {
	if size <= 0 {
		return nil, fmt.Errorf("linalg: adam size %d", size)
	}
	if lr <= 0 {
		return nil, fmt.Errorf("linalg: adam learning rate %g", lr)
	}
	return &Adam32{
		LR:    lr,
		beta1: 0.9,
		beta2: 0.999,
		eps:   1e-8,
		m:     make([]float32, size),
		v:     make([]float32, size),
	}, nil
}

// StepSum applies one bias-corrected update from sharded float32 gradients:
// the effective gradient is scale·Σ parts[w][i] in float32, the moment
// update runs in float32, and only the final per-parameter delta widens to
// float64 as it is subtracted from the master vector. Each updated master
// is re-narrowed into shadow in the same pass — the float32 working copy
// the next forward/backward reads — which folds what would be a separate
// full-vector conversion sweep into a loop that is already streaming the
// parameters through the cache.
func (a *Adam32) StepSum(params []float64, shadow []float32, parts [][]float32, scale float32) {
	if len(params) != len(a.m) {
		panic(fmt.Sprintf("linalg: adam size mismatch: state %d, params %d", len(a.m), len(params)))
	}
	if len(shadow) != len(a.m) {
		panic(fmt.Sprintf("linalg: adam size mismatch: state %d, shadow %d", len(a.m), len(shadow)))
	}
	for w, p := range parts {
		if len(p) != len(a.m) {
			panic(fmt.Sprintf("linalg: adam size mismatch: state %d, grad shard %d has %d", len(a.m), w, len(p)))
		}
	}
	a.t++
	c1 := 1 - math.Pow(float64(a.beta1), float64(a.t))
	c2 := 1 - math.Pow(float64(a.beta2), float64(a.t))
	invC1, invC2 := float32(1/c1), float32(1/c2)
	n := len(params)
	m, v, sh := a.m[:n], a.v[:n], shadow[:n]
	beta1, beta2, eps := a.beta1, a.beta2, a.eps
	omb1, omb2 := 1-beta1, 1-beta2
	lr := float32(a.LR)
	if len(parts) == 1 {
		p := parts[0][:n]
		for i := range params {
			g := p[i] * scale
			mi := beta1*m[i] + omb1*g
			vi := beta2*v[i] + omb2*g*g
			m[i], v[i] = mi, vi
			// float32(math.Sqrt(float64(x))) compiles to a single-precision
			// hardware square root; no widening happens at run time.
			den := float32(math.Sqrt(float64(vi*invC2))) + eps
			pi := params[i] - float64(lr*(mi*invC1)/den)
			params[i] = pi
			sh[i] = float32(pi)
		}
		return
	}
	for i := range params {
		var g float32
		for _, p := range parts {
			g += p[i]
		}
		g *= scale
		mi := beta1*m[i] + omb1*g
		vi := beta2*v[i] + omb2*g*g
		m[i], v[i] = mi, vi
		den := float32(math.Sqrt(float64(vi*invC2))) + eps
		pi := params[i] - float64(lr*(mi*invC1)/den)
		params[i] = pi
		sh[i] = float32(pi)
	}
}
