// Command elevingest serves the live-attack ingestion pipeline: an
// HTTP/NDJSON firehose of shared activities, spooled and batch-classified
// against a pre-trained attack model, with durable exactly-once delivery.
//
// Usage:
//
//	elevattack -tm 1 -scale 0.05 -classifier mlp -folds 2 -save attack.bin
//	elevingest -attack attack.bin -dir /var/lib/elevingest -addr :8090
//	curl -X POST --data-binary @activities.ndjson localhost:8090/ingest
//	curl localhost:8090/ingest/results     # NDJSON, sorted by activity ID
//	curl localhost:8090/ingest/stats
//
//	elevingest -attack attack.bin -offline activities.ndjson -out results.ndjson
//
// The offline mode classifies the same NDJSON in one batch through the same
// model and writes the same results format — the byte-identity baseline the
// crash-recovery smoke compares the live dump against.
//
// The first SIGINT/SIGTERM drains: the front door refuses new uploads (503),
// the spool flushes through the classifier, journals sync, and the process
// exits 0 with a summary. A second signal aborts the drain; whatever was
// accepted but not yet classified replays on the next start from the same
// -dir. SIGKILL is the same story minus the summary — that is the point.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"elevprivacy"
	"elevprivacy/internal/durable"
	"elevprivacy/internal/ingest"
	"elevprivacy/internal/obsboot"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "elevingest:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8090", "serve the ingest API on this address")
		dir        = flag.String("dir", "", "pipeline state directory (journals live here; required to serve)")
		attackPath = flag.String("attack", "", "pre-trained attack model (elevattack -save); required")
		spool      = flag.Int("spool", 1024, "spool depth: activities queued between accept and classify")
		maxBatch   = flag.Int("max-batch", 256, "largest batch handed to the classifier")
		maxBacklog = flag.Int("max-backlog", 1<<16, "accepted-but-unclassified bound; past it uploads shed with 429")
		stageTO    = flag.Duration("stage-timeout", 5*time.Second, "classifier stage deadline (0 = none)")
		inflight   = flag.Int("max-inflight", ingest.DefaultMaxInFlight, "concurrent upload requests before 429 shedding (0 = unbounded)")
		reqTO      = flag.Duration("request-timeout", ingest.DefaultRequestTimeout, "per-request wall-clock bound (0 = none)")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget after the first signal")

		faultSeed      = flag.Int64("fault-seed", 1, "fault-injection schedule seed")
		faultStallProb = flag.Float64("fault-stall-prob", 0, "per-batch probability of stalling the classifier")
		faultStall     = flag.Duration("fault-stall", 200*time.Millisecond, "how long a stalled batch sleeps")
		faultFailProb  = flag.Float64("fault-fail-prob", 0, "per-batch probability of an injected classifier error")

		offline = flag.String("offline", "", "classify this NDJSON file in one offline batch instead of serving")
		outPath = flag.String("out", "", "offline mode: write results NDJSON to this path (atomic)")
	)
	obsFlags := obsboot.Register(nil)
	flag.Parse()

	tel, err := obsFlags.Start("elevingest")
	if err != nil {
		return err
	}
	defer func() {
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "elevingest:", err)
		}
	}()

	if *attackPath == "" {
		return fmt.Errorf("-attack is required (train one with: elevattack -tm 1 -save attack.bin)")
	}
	attack, err := loadAttack(*attackPath)
	if err != nil {
		return err
	}

	if *offline != "" {
		if *outPath == "" {
			return fmt.Errorf("-offline requires -out")
		}
		return runOffline(attack, *offline, *outPath)
	}

	if *dir == "" {
		return fmt.Errorf("-dir is required to serve (it holds the intake and results journals)")
	}

	var cls ingest.Classifier = &attackClassifier{attack: attack}
	cls = ingest.WithFaults(cls, ingest.FaultConfig{
		Seed:      *faultSeed,
		StallProb: *faultStallProb,
		Stall:     *faultStall,
		FailProb:  *faultFailProb,
	})

	p, err := ingest.Open(*dir, ingest.Config{
		SpoolDepth:   *spool,
		MaxBatch:     *maxBatch,
		MaxBacklog:   *maxBacklog,
		StageTimeout: *stageTO,
	}, cls)
	if err != nil {
		return err
	}
	if restored := p.Stats().Restored; restored > 0 {
		fmt.Printf("recovery: %d accepted-but-unclassified activities restored for replay\n", restored)
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: ingest.NewServer(p,
			ingest.WithMaxInFlight(*inflight),
			ingest.WithRequestTimeout(*reqTO),
		).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("ingest service on %s (state in %s)\n", *addr, *dir)

	shutdown := durable.NotifyShutdown(context.Background())
	defer shutdown.Stop()

	select {
	case err := <-errc:
		_ = p.Drain(context.Background())
		return err
	case <-shutdown.Draining:
	}

	// Phase one: stop the front door, then flush the spool through the
	// classifier under the drain budget. A second signal (or the budget
	// expiring) hard-stops; the intake journal keeps whatever was pending.
	fmt.Println("draining: refusing new uploads, flushing the spool")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	_ = srv.Shutdown(shutCtx)

	drainCtx, cancelDrain := context.WithTimeout(shutdown.Context(), *drainTO)
	defer cancelDrain()
	drainErr := p.Drain(drainCtx)

	st := p.Stats()
	fmt.Printf("drained: accepted=%d classified=%d spilled=%d replayed=%d shed=%d results=%d\n",
		st.Accepted, st.Classified, st.Spilled, st.Replayed, st.Shed, st.Results)
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "elevingest: %v\n", drainErr)
	}
	return nil
}

// loadAttack reads a saved TextAttack model.
func loadAttack(path string) (*elevprivacy.TextAttack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return elevprivacy.LoadTextAttack(f)
}

// attackClassifier adapts the batch text attack to the pipeline's stage
// interface. PredictLocations is row-independent, so predictions do not
// depend on how the stream was batched — the byte-identity guarantee rests
// on that.
type attackClassifier struct {
	attack *elevprivacy.TextAttack
}

func (c *attackClassifier) ClassifyBatch(profiles [][]float64) ([]string, error) {
	return c.attack.PredictLocations(profiles)
}

// runOffline is the baseline path: decode the whole firehose file, dedupe
// by ID keeping the first occurrence (exactly what the live pipeline's
// idempotency does), sort by ID, classify in one batch, dump NDJSON.
func runOffline(attack *elevprivacy.TextAttack, inPath, outPath string) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()

	lim := ingest.Limits{}
	seen := map[string]ingest.Envelope{}
	var ids []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), ingest.DefaultMaxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		env, err := ingest.DecodeLine(sc.Bytes(), lim)
		if err != nil {
			return fmt.Errorf("%s line %d: %w", inPath, lineNo, err)
		}
		if _, dup := seen[env.ID]; dup {
			continue
		}
		seen[env.ID] = env
		ids = append(ids, env.ID)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", inPath, err)
	}
	sort.Strings(ids)

	profiles := make([][]float64, len(ids))
	for i, id := range ids {
		profiles[i] = seen[id].Elevations
	}
	preds, err := attack.PredictLocations(profiles)
	if err != nil {
		return err
	}

	err = durable.WriteFileAtomic(outPath, 0o644, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		for i, id := range ids {
			line, err := json.Marshal(ingest.ResultLine{ID: id, Predicted: preds[i]})
			if err != nil {
				return err
			}
			bw.Write(line)
			bw.WriteByte('\n')
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	fmt.Printf("offline baseline: %d activities classified, results in %s\n", len(ids), outPath)
	return nil
}
