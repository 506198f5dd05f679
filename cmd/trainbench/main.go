// Command trainbench measures the classifier training hot path on a
// synthetic corpus at the scale of the paper's Table II mined datasets:
// MLP FitSparse on the float64 path and on the opt-in reduced-precision
// float32 path, and SVM FitSparse, recorded as ns/sample in a JSON report.
// The float32 comparison doubles as a correctness check: both MLPs score
// the training set and the report carries their largest probability gap
// and argmax agreement.
//
// Usage:
//
//	trainbench                     # full Table-II-scale run
//	trainbench -quick              # smoke-scale run (CI)
//	trainbench -out BENCH_train.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime/pprof"
	"testing"

	"elevprivacy/internal/durable"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/ml/mlp"
	"elevprivacy/internal/ml/svm"
	"elevprivacy/internal/obs"
	"elevprivacy/internal/textrep"
)

// corpusConfig describes the synthetic workload.
type corpusConfig struct {
	Samples     int `json:"samples"`
	Points      int `json:"points"`
	Classes     int `json:"classes"`
	Precision   int `json:"precision"`
	MaxFeatures int `json:"max_features"`
}

// mlpReport compares the MLP's float64 and float32 training paths.
type mlpReport struct {
	Epochs             int     `json:"epochs"`
	Float64NsPerSample float64 `json:"float64_ns_per_sample"`
	Float32NsPerSample float64 `json:"float32_ns_per_sample"`
	Float32Speedup     float64 `json:"float32_speedup"` // float64 / float32
	// Float32MaxAbsDiff is the largest |p32 - p64| over all samples and
	// classes; Float32ArgmaxAgreement the fraction of samples where both
	// paths predict the same class.
	Float32MaxAbsDiff      float64 `json:"float32_max_abs_diff"`
	Float32ArgmaxAgreement float64 `json:"float32_argmax_agreement"`
}

// svmReport records the SVM's training cost.
type svmReport struct {
	Epochs      int     `json:"epochs"`
	NsPerSample float64 `json:"ns_per_sample"`
}

// report is the BENCH_train.json schema.
type report struct {
	Corpus   corpusConfig `json:"corpus"`
	Features int          `json:"features"`
	MLP      mlpReport    `json:"mlp"`
	SVM      svmReport    `json:"svm"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trainbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick      = flag.Bool("quick", false, "smoke-scale corpus (seconds; used by CI)")
		out        = flag.String("out", "BENCH_train.json", "report path")
		seed       = flag.Int64("seed", 1, "corpus random seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this path")
		metricsOut = flag.String("metrics-out", "", "also write the bench numbers as Prometheus text to this path")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := durable.CreateAtomic(*cpuprofile, 0o644)
		if err != nil {
			return err
		}
		defer func() {
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "trainbench: cpuprofile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Abort()
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cc := corpusConfig{Samples: 400, Points: 200, Classes: 4, Precision: 3, MaxFeatures: 4096}
	mlpEpochs, svmEpochs := 4, 10
	if *quick {
		cc = corpusConfig{Samples: 60, Points: 60, Classes: 3, Precision: 3, MaxFeatures: 512}
		mlpEpochs, svmEpochs = 2, 5
	}
	signals, y := syntheticCorpus(cc, *seed)

	pcfg := textrep.DefaultPipelineConfig()
	pcfg.Discretizer = nil
	pcfg.Precision = cc.Precision
	pcfg.MaxFeatures = cc.MaxFeatures
	pipe, err := textrep.NewPipeline(signals, pcfg)
	if err != nil {
		return err
	}
	sparse := pipe.FeaturesAllSparse(signals)
	rep := report{Corpus: cc, Features: pipe.Dim()}
	perSample := func(r testing.BenchmarkResult) float64 {
		return float64(r.NsPerOp()) / float64(cc.Samples)
	}
	fitRes := func(fit func() error) testing.BenchmarkResult {
		return bestOf(2, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	fitMLP := func(cfg mlp.Config) (*mlp.MLP, error) {
		m, err := mlp.New(cfg)
		if err != nil {
			return nil, err
		}
		return m, m.FitSparse(sparse, y)
	}

	// MLP: float64 vs float32.
	mcfg := mlp.DefaultConfig(cc.Classes)
	mcfg.Epochs = mlpEpochs
	mcfg.Seed = *seed
	m32cfg := mcfg
	m32cfg.Float32 = true
	rep.MLP.Epochs = mlpEpochs
	rep.MLP.Float64NsPerSample = perSample(fitRes(func() error { _, err := fitMLP(mcfg); return err }))
	rep.MLP.Float32NsPerSample = perSample(fitRes(func() error { _, err := fitMLP(m32cfg); return err }))
	rep.MLP.Float32Speedup = rep.MLP.Float64NsPerSample / rep.MLP.Float32NsPerSample
	m64, err := fitMLP(mcfg)
	if err != nil {
		return err
	}
	m32, err := fitMLP(m32cfg)
	if err != nil {
		return err
	}
	if err := compareFloat32(&rep.MLP, m64, m32, sparse); err != nil {
		return err
	}

	// SVM.
	scfg := svm.DefaultConfig(cc.Classes)
	scfg.Epochs = svmEpochs
	scfg.Seed = *seed
	rep.SVM.Epochs = svmEpochs
	rep.SVM.NsPerSample = perSample(fitRes(func() error {
		clf, err := svm.New(scfg)
		if err != nil {
			return err
		}
		return clf.FitSparse(sparse, y)
	}))

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	err = durable.WriteFileAtomic(*out, 0o644, func(w io.Writer) error {
		_, werr := w.Write(append(blob, '\n'))
		return werr
	})
	if err != nil {
		return err
	}

	publishReport(rep)
	if *metricsOut != "" {
		err := durable.WriteFileAtomic(*metricsOut, 0o644, func(w io.Writer) error {
			return obs.DefaultRegistry().WritePrometheus(w)
		})
		if err != nil {
			return err
		}
	}

	fmt.Printf("corpus: %d samples x %d points, %d classes, precision %d (%d features)\n",
		cc.Samples, cc.Points, cc.Classes, cc.Precision, rep.Features)
	fmt.Printf("mlp   float64 %12.0f ns/sample | float32 %12.0f (%5.2fx, maxdiff=%.2e, argmax=%.3f)\n",
		rep.MLP.Float64NsPerSample, rep.MLP.Float32NsPerSample, rep.MLP.Float32Speedup,
		rep.MLP.Float32MaxAbsDiff, rep.MLP.Float32ArgmaxAgreement)
	fmt.Printf("svm   float64 %12.0f ns/sample\n", rep.SVM.NsPerSample)
	fmt.Printf("report written to %s\n", *out)
	return nil
}

// compareFloat32 scores the training set with both MLPs and fills the
// report's float32 agreement fields.
func compareFloat32(r *mlpReport, m64, m32 *mlp.MLP, x *linalg.SparseMatrix) error {
	p64, err := m64.ScoresSparse(x)
	if err != nil {
		return err
	}
	p32, err := m32.ScoresSparse(x)
	if err != nil {
		return err
	}
	for i, v := range p64.Data {
		r.Float32MaxAbsDiff = math.Max(r.Float32MaxAbsDiff, math.Abs(p32.Data[i]-v))
	}
	agree := 0
	for i := 0; i < p64.Rows; i++ {
		if linalg.ArgMax(p64.Row(i)) == linalg.ArgMax(p32.Row(i)) {
			agree++
		}
	}
	r.Float32ArgmaxAgreement = float64(agree) / float64(p64.Rows)
	return nil
}

// publishReport routes the BENCH report through the metrics registry as
// gauges, so the same numbers that land in BENCH_train.json are
// scrapeable (and renderable with -metrics-out).
func publishReport(rep report) {
	obs.GetGauge(`elevpriv_trainbench_ns_per_sample{model="mlp",path="float64"}`).Set(rep.MLP.Float64NsPerSample)
	obs.GetGauge(`elevpriv_trainbench_ns_per_sample{model="mlp",path="float32"}`).Set(rep.MLP.Float32NsPerSample)
	obs.GetGauge(`elevpriv_trainbench_speedup{model="mlp",path="float32"}`).Set(rep.MLP.Float32Speedup)
	obs.GetGauge(`elevpriv_trainbench_ns_per_sample{model="svm",path="float64"}`).Set(rep.SVM.NsPerSample)
	obs.GetGauge("elevpriv_trainbench_corpus_samples").Set(float64(rep.Corpus.Samples))
	obs.GetGauge("elevpriv_trainbench_features").Set(float64(rep.Features))
}

// bestOf returns the run with the lowest ns/op out of k benchmark runs.
func bestOf(k int, f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 1; i < k; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// syntheticCorpus generates elevation profiles the way mined data looks at
// the paper's precision-3 discretization (Table II): each profile is a
// bounded random walk around its class's base altitude, yielding the
// sparse high-vocabulary features the mined-corpus text attack trains on.
func syntheticCorpus(cc corpusConfig, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	signals := make([][]float64, cc.Samples)
	y := make([]int, cc.Samples)
	for i := range signals {
		class := i % cc.Classes
		base := 20 + float64(class)*150
		elev := base + rng.Float64()*30
		sig := make([]float64, cc.Points)
		for j := range sig {
			elev += rng.NormFloat64() * 1.5
			if elev < base-40 {
				elev = base - 40
			}
			sig[j] = elev
		}
		signals[i] = sig
		y[i] = class
	}
	return signals, y
}
