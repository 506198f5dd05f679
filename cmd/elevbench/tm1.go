package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"elevprivacy"
	"elevprivacy/internal/obs"
)

// tm1Plan sizes the model workload.
type tm1Plan struct {
	data  elevprivacy.DatasetConfig
	folds int
	// pinned tells whether the configuration is the one tm1Pinned holds.
	pinned bool
}

func planTM1(cfg runConfig) tm1Plan {
	if cfg.quick {
		return tm1Plan{data: elevprivacy.DatasetConfig{Scale: 0.05, ProfileSamples: 40, MinPerClass: 10, Seed: cfg.seed},
			folds: 2}
	}
	return tm1Plan{data: elevprivacy.DatasetConfig{Scale: 0.2, ProfileSamples: 80, MinPerClass: 10, Seed: cfg.seed},
		folds: 5, pinned: cfg.seed == 17}
}

// tm1Pinned is CrossValidateText's result for seed 17 in the full
// configuration at the commit that introduced this benchmark.
var tm1Pinned = elevprivacy.Metrics{
	Accuracy:    0.9675268817204301,
	Precision:   0.973947192513369,
	Recall:      0.9608730158730158,
	F1:          0.9658658938485788,
	Specificity: 0.9862019230769231,
}

// tm1SetupsPerIteration is how many more set-ups run after each iteration.
const tm1SetupsPerIteration = 10

// tm1Iteration is one timed cross-validation and training.
type tm1Iteration struct {
	cv, train interval
}

func runTM1(ctx context.Context, cfg runConfig, r *record) error {
	plan := planTM1(cfg)
	var tracer *obs.Tracer
	if cfg.trace {
		tracer = startTracing(1 << 14)
		defer obs.DisableTracing()
	}
	buildDataset := func() (*elevprivacy.Dataset, error) {
		_, span := obs.StartSpan(ctx, "dataset.build")
		defer span.End()
		return elevprivacy.NewUserSpecificDataset(plan.data)
	}
	d, err := measureSetup(r, func(int) (*elevprivacy.Dataset, error) { return buildDataset() }, nil)
	if err != nil {
		return err
	}
	signals, _ := signalsAndLabels(d)
	acfg := attackConfig()

	// The untimed warm-up goes through the public functions; its outputs
	// are the reference every timed iteration must reproduce.
	want, err := elevprivacy.CrossValidateText(d, acfg, plan.folds)
	if err != nil {
		return err
	}
	attack, err := elevprivacy.TrainTextAttack(d, acfg)
	if err != nil {
		return err
	}
	wantPreds, err := attack.PredictLocations(signals)
	if err != nil {
		return err
	}
	if plan.pinned {
		err := sameMetrics(want, tm1Pinned)
		r.check("metrics-pinned", err == nil, "CrossValidateText for seed 17: %v", err)
	}

	var iters []tm1Iteration
	cv, train := &dist{}, &dist{}
	mismatches := 0
	// Iterate while another iteration of the mean length still ends
	// inside the measured seconds.
	start, alloc := time.Now(), heapAllocated()
	for len(iters) == 0 || time.Since(start)+time.Since(start)/time.Duration(len(iters)) <= time.Duration(cfg.seconds)*time.Second {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		it, m, preds, err := tm1Once(ctx, d, signals, plan.folds, cfg.trace)
		if err != nil {
			return err
		}
		iters = append(iters, it)
		cv.addDur(it.cv.hi.Sub(it.cv.lo))
		train.addDur(it.train.hi.Sub(it.train.lo))
		if sameMetrics(m, want) != nil || !reflect.DeepEqual(preds, wantPreds) {
			mismatches++
		}
		// Set-up is repeated between iterations, untimed for them, so its
		// median spans the run rather than its first moments.
		for i := 0; i < tm1SetupsPerIteration; i++ {
			if err := r.timeSetup(func() error { _, err := buildDataset(); return err }); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		if cfg.quick {
			break
		}
	}
	r.set("alloc_kb_per_op", float64(heapAllocated()-alloc)/1024/float64(len(iters)), "KB")
	r.attempt(2*len(iters), 0)
	r.check("outputs-identical", mismatches == 0,
		"%d of %d iterations differ from the public functions' metrics or predictions", mismatches, len(iters))

	r.set("main_p50_ms", cv.q(0.5)/1e6, "ms")
	r.set("aux_p50_ms", train.q(0.5)/1e6, "ms")
	r.Samples["main_p50_ms"], r.Samples["aux_p50_ms"] = cv.n(), train.n()
	r.detail("dataset_samples", float64(len(signals)), "count")
	r.detail("cv_accuracy", want.Accuracy, "ratio")

	if !cfg.trace {
		return nil
	}
	spans, err := finishTracing(r, tracer, &waits{}, cfg.traceOut)
	if err != nil {
		return err
	}
	tm1Layers(r, newSpanSet(spans), iters, start)
	return nil
}

// tm1Once runs one timed cross-validation and training, through the
// public functions or, traced, through their rebuilt parts. The
// predictions over the dataset check the trained model; they are not
// timed.
func tm1Once(ctx context.Context, d *elevprivacy.Dataset, signals [][]float64, folds int, traced bool) (tm1Iteration, elevprivacy.Metrics, []string, error) {
	acfg := attackConfig()
	var it tm1Iteration
	var m elevprivacy.Metrics
	var err error
	it.cv.lo = time.Now()
	if traced {
		cvCtx, span := obs.StartSpan(ctx, "eval.cross_validate")
		m, err = crossValidateTraced(cvCtx, d, acfg, folds)
		span.End()
	} else {
		m, err = elevprivacy.CrossValidateText(d, acfg, folds)
	}
	it.cv.hi = time.Now()
	if err != nil {
		return it, m, nil, err
	}

	var preds []string
	it.train.lo = time.Now()
	if traced {
		trainCtx, span := obs.StartSpan(ctx, "elevprivacy.train")
		var model *textModel
		model, err = trainTextModel(trainCtx, d, acfg)
		span.End()
		it.train.hi = time.Now()
		if err == nil {
			preds, err = model.predict(ctx, signals)
		}
	} else {
		var a *elevprivacy.TextAttack
		a, err = elevprivacy.TrainTextAttack(d, acfg)
		it.train.hi = time.Now()
		if err == nil {
			preds, err = a.PredictLocations(signals)
		}
	}
	return it, m, preds, err
}

// tm1Layers splits each cross-validation into pipeline build,
// featurization, fold fits, scoring and the rest, and each training into
// build, featurization and the dense fit.
func tm1Layers(r *record, set *spanSet, iters []tm1Iteration, start time.Time) {
	fit, score, other, build, dense := &dist{}, &dist{}, &dist{}, &dist{}, &dist{}
	var featurize, predict []obs.SpanRecord
	for _, it := range iters {
		in := func(name string, iv interval) []obs.SpanRecord { return set.named(name, iv.lo, iv.hi) }
		fits, scores := in("ml.fit_sparse", it.cv), in("ml.predict", it.cv)
		builds, feats := in("textrep.build", it.cv), in("textrep.featurize", it.cv)
		fit.addDur(union(intervals(fits)))
		score.addDur(union(intervals(scores)))
		both := union(append(intervals(fits), intervals(scores)...))
		other.addDur(it.cv.hi.Sub(it.cv.lo) - both - time.Duration(durations(builds).sum()+durations(feats).sum()))
		for _, b := range append(builds, in("textrep.build", it.train)...) {
			build.addDur(b.Duration())
		}
		for _, f := range in("ml.fit_dense", it.train) {
			dense.addDur(f.Duration())
		}
		featurize = append(append(featurize, feats...), in("textrep.featurize", it.train)...)
		predict = append(predict, scores...)
	}
	r.set("ml.fit_sparse_s", fit.q(0.5)/1e9, "s")
	r.set("ml.fit_dense_s", dense.q(0.5)/1e9, "s")
	r.set("eval.score_ms", score.q(0.5)/1e6, "ms")
	r.set("eval.other_ms", other.q(0.5)/1e6, "ms")
	r.set("textrep.build_ms", build.q(0.5)/1e6, "ms")
	r.set("textrep.featurize_us_per_row", perRow(featurize), "us/row")
	r.set("ml.predict_us_per_row", perRow(predict), "us/row")
	if d := durations(set.named("dataset.build", time.Time{}, start)); d.n() > 0 {
		r.set("dataset.build_ms", d.q(0.5)/1e6, "ms")
	}
}
