package elevprivacy

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/cnn"
	"elevprivacy/internal/ml/mlp"
	"elevprivacy/internal/ml/svm"
)

func persistenceDataset(t testing.TB) *Dataset {
	t.Helper()
	d, err := NewCityLevelDataset(DatasetConfig{
		Scale: 0.015, ProfileSamples: 50, MinPerClass: 10, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.Filter("Colorado Springs", "Miami", "San Francisco")
}

func TestTextAttackSaveLoadRoundTrip(t *testing.T) {
	d := persistenceDataset(t)
	for _, kind := range []ClassifierKind{ClassifierSVM, ClassifierMLP} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			attack, err := TrainTextAttack(d, DefaultTextAttackConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := attack.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := LoadTextAttack(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(back.Labels()) != 3 {
				t.Fatalf("labels = %v", back.Labels())
			}
			// Every prediction must be preserved exactly.
			for i := range d.Samples {
				want, err := attack.PredictLocation(d.Samples[i].Elevations)
				if err != nil {
					t.Fatal(err)
				}
				got, err := back.PredictLocation(d.Samples[i].Elevations)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("sample %d: loaded model predicts %q, original %q", i, got, want)
				}
			}
		})
	}
}

func TestTextAttackSaveForestRejected(t *testing.T) {
	d := persistenceDataset(t)
	attack, err := TrainTextAttack(d, DefaultTextAttackConfig(ClassifierRandomForest))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := attack.Save(&buf); err == nil {
		t.Error("forest save accepted")
	}
}

func TestImageAttackSaveLoadRoundTrip(t *testing.T) {
	d := persistenceDataset(t)
	cfg := DefaultImageAttackConfig(TrainWeighted)
	cfg.Epochs = 4
	attack, err := TrainImageAttack(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := attack.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadImageAttack(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want, err := attack.PredictLocation(d.Samples[i].Elevations)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.PredictLocation(d.Samples[i].Elevations)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sample %d: loaded CNN predicts %q, original %q", i, got, want)
		}
	}
}

func TestLoadAttackRejectsGarbage(t *testing.T) {
	for _, input := range []string{"", "NOPE", "ELPA", "ELPA\x04\x00\x00\x00{}"} {
		if _, err := LoadTextAttack(strings.NewReader(input)); err == nil {
			t.Errorf("text attack loaded from %q", input)
		}
		if _, err := LoadImageAttack(strings.NewReader(input)); err == nil {
			t.Errorf("image attack loaded from %q", input)
		}
	}
	// A text-attack file is not an image attack and vice versa.
	d := persistenceDataset(t)
	attack, err := TrainTextAttack(d, DefaultTextAttackConfig(ClassifierSVM))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := attack.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImageAttack(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("text-attack file loaded as image attack")
	}
}

// TestLoadAttackCorruptionIsFormatError pins the readEnvelope hardening: a
// corrupt file must produce a *FormatError describing what is wrong, and an
// implausible length prefix must be rejected before any payload-sized
// allocation could happen.
func TestLoadAttackCorruptionIsFormatError(t *testing.T) {
	hugeLength := make([]byte, 0, 8)
	hugeLength = append(hugeLength, "ELPA"...)
	hugeLength = binary.LittleEndian.AppendUint32(hugeLength, 0xFFFFFFFF)

	justOverBound := make([]byte, 0, 8)
	justOverBound = append(justOverBound, "ELPA"...)
	justOverBound = binary.LittleEndian.AppendUint32(justOverBound, maxEnvelopeBytes+1)

	truncatedEnvelope := make([]byte, 0, 16)
	truncatedEnvelope = append(truncatedEnvelope, "ELPA"...)
	truncatedEnvelope = binary.LittleEndian.AppendUint32(truncatedEnvelope, 100)
	truncatedEnvelope = append(truncatedEnvelope, "{\"labels\""...) // 9 of 100 bytes

	cases := []struct {
		name  string
		input string
		what  string
	}{
		{"empty", "", "header"},
		{"short header", "ELPA\x04\x00", "header"},
		{"bad magic", "NOPE\x04\x00\x00\x00{}xx", "magic"},
		{"huge length", string(hugeLength), "envelope length"},
		{"length just over bound", string(justOverBound), "envelope length"},
		{"truncated envelope", string(truncatedEnvelope), "envelope"},
		{"bad JSON", "ELPA\x04\x00\x00\x00[[[[", "envelope JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadTextAttack(strings.NewReader(tc.input))
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want *FormatError", err)
			}
			if fe.What != tc.what {
				t.Fatalf("FormatError.What = %q, want %q (detail: %s)", fe.What, tc.what, fe.Detail)
			}
		})
	}

	// The bound itself is exact: a length of maxEnvelopeBytes is admitted
	// past the length check (and then fails as truncated, not implausible).
	atBound := make([]byte, 0, 8)
	atBound = append(atBound, "ELPA"...)
	atBound = binary.LittleEndian.AppendUint32(atBound, maxEnvelopeBytes)
	_, err := LoadTextAttack(strings.NewReader(string(atBound)))
	var fe *FormatError
	if !errors.As(err, &fe) || fe.What != "envelope" {
		t.Fatalf("at-bound length: err = %v, want truncated-envelope *FormatError", err)
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// smallAlloc bounds what rejecting a malformed model of a few hundred
// bytes may allocate.
const smallAlloc = 1 << 20

// rawModel writes a model file in ml.WriteModel's layout whose block
// lengths are declared, not derived: block i declares declared[i] values and
// holds values[i], if there is one.
func rawModel(t testing.TB, kind string, config any, declared []uint64, values ...[]float64) []byte {
	t.Helper()
	cfg, err := json.Marshal(config)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := json.Marshal(ml.Header{Kind: kind, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	b := append([]byte("ELPV"), binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))...)
	b = append(b, hdr...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(declared)))
	for i, n := range declared {
		b = binary.LittleEndian.AppendUint64(b, n)
		if i < len(values) {
			for _, v := range values[i] {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	return b
}

// mlpHeader is an mlp file's config: the network shape and input width.
func mlpHeader(hidden, dim int) any {
	return map[string]any{"config": mlp.Config{Classes: 2, Hidden: hidden, Epochs: 1,
		BatchSize: 1, LearningRate: 1e-3}, "dim": dim}
}

// TestReadModelTruncatedBlockAllocatesLittle: a block that declares 64M
// values and holds none used to allocate 512 MiB before the read failed.
func TestReadModelTruncatedBlockAllocatesLittle(t *testing.T) {
	in := rawModel(t, "mlp", mlpHeader(1, 1), []uint64{64 << 20})
	var err error
	alloc := allocatedBy(func() { _, _, err = ml.ReadModel(bytes.NewReader(in)) })
	if !errors.Is(err, ml.ErrMalformedModel) {
		t.Fatalf("err = %v, want ml.ErrMalformedModel", err)
	}
	if alloc > smallAlloc {
		t.Errorf("rejecting a %d-byte file allocated %d bytes", len(in), alloc)
	}
}

// TestMLPLoadHugeHeaderAllocatesLittle: a header of 1e9×1e9 made the
// loader panic in makeslice, and one of 20000×20000 allocated 9.6 GB, both
// before the parameter block was compared with the header.
func TestMLPLoadHugeHeaderAllocatesLittle(t *testing.T) {
	for _, shape := range [][2]int{{1e9, 1e9}, {20000, 20000}} {
		in := rawModel(t, "mlp", mlpHeader(shape[0], shape[1]), []uint64{1}, []float64{0.5})
		var err error
		alloc := allocatedBy(func() { _, err = mlp.Load(bytes.NewReader(in)) })
		if !errors.Is(err, ml.ErrMalformedModel) {
			t.Fatalf("%v: err = %v, want ml.ErrMalformedModel", shape, err)
		}
		if alloc > smallAlloc {
			t.Errorf("%v: rejecting a %d-byte file allocated %d bytes", shape, len(in), alloc)
		}
	}
}

// TestSVMLoadHugeHeaderAllocatesLittle: the weight matrix used to be
// allocated at Classes×Dim from the header before any block's width was
// checked.
func TestSVMLoadHugeHeaderAllocatesLittle(t *testing.T) {
	cfg := map[string]any{"config": svm.DefaultConfig(2), "dim": 1 << 40}
	in := rawModel(t, "svm", cfg, []uint64{1, 1, 2}, []float64{1}, []float64{1}, []float64{0, 0})
	var err error
	alloc := allocatedBy(func() { _, err = svm.Load(bytes.NewReader(in)) })
	if !errors.Is(err, ml.ErrMalformedModel) {
		t.Fatalf("err = %v, want ml.ErrMalformedModel", err)
	}
	if alloc > smallAlloc {
		t.Errorf("rejecting a %d-byte file allocated %d bytes", len(in), alloc)
	}
}

// TestCNNLoadHugeHeaderAllocatesLittle: cnn.New used to allocate from the
// header's conv widths and input size before the block was checked.
func TestCNNLoadHugeHeaderAllocatesLittle(t *testing.T) {
	for _, cfg := range []cnn.Config{
		{Classes: 2, InSize: 1 << 20, Conv1: 1 << 10, Conv2: 1 << 10, Epochs: 1, BatchSize: 1, LearningRate: 1e-3},
		{Classes: 2, InSize: 1 << 40, Conv1: 1 << 30, Conv2: 1 << 30, Epochs: 1, BatchSize: 1, LearningRate: 1e-3},
	} {
		in := rawModel(t, "cnn", map[string]any{"config": cfg}, []uint64{1}, []float64{0.5})
		var err error
		alloc := allocatedBy(func() { _, err = cnn.Load(bytes.NewReader(in)) })
		if !errors.Is(err, ml.ErrMalformedModel) {
			t.Fatalf("%d/%d: err = %v, want ml.ErrMalformedModel", cfg.Conv1, cfg.InSize, err)
		}
		if alloc > smallAlloc {
			t.Errorf("%d/%d: rejecting a %d-byte file allocated %d bytes", cfg.Conv1, cfg.InSize, len(in), alloc)
		}
	}
}

// TestReadEnvelopeTruncatedAllocatesLittle: an envelope that declares just
// under the 64 MiB bound and holds a few bytes used to allocate the
// declared length before the read failed.
func TestReadEnvelopeTruncatedAllocatesLittle(t *testing.T) {
	in := binary.LittleEndian.AppendUint32([]byte("ELPA"), maxEnvelopeBytes-1)
	in = append(in, `{"labels":`...)
	var err error
	alloc := allocatedBy(func() { _, err = LoadTextAttack(bytes.NewReader(in)) })
	var fe *FormatError
	if !errors.As(err, &fe) || fe.What != "envelope" {
		t.Fatalf("err = %v, want a truncated-envelope *FormatError", err)
	}
	if alloc > smallAlloc {
		t.Errorf("rejecting a %d-byte file allocated %d bytes", len(in), alloc)
	}
}

// FuzzLoadTextAttack holds the attack-file loader to its contract on any
// bytes: it never panics, rejects with a *FormatError, allocates within a
// small multiple of the input, and whatever it accepts saves and reloads to
// the same bytes.
func FuzzLoadTextAttack(f *testing.F) {
	d := persistenceDataset(f)
	for _, kind := range []ClassifierKind{ClassifierSVM, ClassifierMLP} {
		cfg := DefaultTextAttackConfig(kind)
		cfg.MaxFeatures = 64
		attack, err := TrainTextAttack(d, cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := attack.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var attack *TextAttack
		var err error
		alloc := allocatedBy(func() { attack, err = LoadTextAttack(bytes.NewReader(data)) })
		if limit := 64*uint64(len(data)) + 4<<20; alloc > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v (%T), want *FormatError", err, err)
			}
			return
		}
		once := saveAttack(t, attack)
		back, err := LoadTextAttack(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("reloading a saved attack: %v", err)
		}
		if twice := saveAttack(t, back); !bytes.Equal(once, twice) {
			t.Fatalf("save∘load is not the identity on a saved attack")
		}
	})
}

func saveAttack(t *testing.T, a *TextAttack) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
