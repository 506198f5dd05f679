package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests drives one connection at a
// handler whose first request stalls for 200 ms. The requests that fall
// due during the stall queue behind it: their latency, counted from when
// they were due, carries the stall, and so does their send lag, while the
// generator itself stays on schedule.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	offsets := make([]time.Duration, 20)
	for i := range offsets {
		offsets[i] = time.Duration(i) * 10 * time.Millisecond
	}
	ops := openLoop(context.Background(), time.Now(), offsets, 1, func(c, i int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
	for i, o := range ops {
		if o.err != nil {
			t.Fatalf("op %d: %v", i, o.err)
		}
		if late := o.lateness(); late > 20*time.Millisecond {
			t.Errorf("op %d: generator %v late; it must not wait for the stalled connection", i, late)
		}
		// Ops due before the stall ends carry what is left of it, queued
		// behind the stalled first one.
		if left := stall - offsets[i]; i > 0 && left > 20*time.Millisecond {
			if got := o.latency(); got < left {
				t.Errorf("op %d: latency %v, want at least the %v of stall left when it fell due", i, got, left)
			}
			if lag := o.start.Sub(o.due); lag < left-10*time.Millisecond {
				t.Errorf("op %d: sent %v after due, want about %v", i, lag, left)
			}
			if service := o.end.Sub(o.start); service > left/2 {
				t.Errorf("op %d: service time %v should be small; the wait is queueing", i, service)
			}
		}
	}
}

func TestClosedLoopStopsAtLimit(t *testing.T) {
	var sent atomic.Int64
	ops := closedLoop(context.Background(), time.Now().Add(time.Minute), 50, 2, func(c, i int) error {
		sent.Add(1)
		return nil
	})
	if len(ops) != 50 || sent.Load() != 50 {
		t.Fatalf("issued %d ops (%d sends), want 50", len(ops), sent.Load())
	}
	for i, o := range ops {
		if o.end.Before(o.start) || o.due != o.start {
			t.Errorf("op %d: due %v start %v end %v", i, o.due, o.start, o.end)
		}
	}
}
