package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is the timing of one client operation. Latency runs from due, the
// time the schedule said the operation should be sent, so a stall that
// holds back later sends is charged to every operation it delayed.
type op struct {
	due   time.Time // scheduled send time (the actual start in a closed loop)
	ready time.Time // when the generator handed the operation to the connections
	start time.Time // when a connection began sending it
	end   time.Time // when the response was complete
	err   error
}

func (o *op) latency() time.Duration { return o.end.Sub(o.due) }

// lateness is how late the generator itself ran; unlike the queueing
// before start, it is an artefact of the load generator, not of the system.
func (o *op) lateness() time.Duration { return o.ready.Sub(o.due) }

// openLoop issues len(offsets) operations, the i-th due at t0+offsets[i],
// over conns connections. The generator never waits for a connection: an
// operation that falls due while every connection is busy queues. send(c,
// i) performs operation i on connection c. openLoop returns once every
// issued operation has completed; when ctx ends first, the unissued ones
// carry ctx's error.
func openLoop(ctx context.Context, t0 time.Time, offsets []time.Duration, conns int, send func(c, i int) error) []op {
	ops := make([]op, len(offsets))
	// Sized to the number of sends, so handing an operation over never blocks.
	jobs := make(chan int, len(offsets))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range jobs {
				ops[i].start = time.Now()
				ops[i].err = send(c, i)
				ops[i].end = time.Now()
			}
		}(c)
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i, off := range offsets {
		due := t0.Add(off)
		ops[i].due = due
		if d := time.Until(due) - timerSlack; d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		sleepUntil(due)
		if err := ctx.Err(); err != nil {
			for j := i; j < len(ops); j++ {
				ops[j].due = t0.Add(offsets[j])
				ops[j].err = err
			}
			break
		}
		ops[i].ready = time.Now()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return ops
}

// timerSlack is how early the runtime timer may fire: an idle Go process
// waits for timers in the network poller, whose timeout has millisecond
// resolution, so a runtime timer can fire up to a millisecond late.
const timerSlack = 2 * time.Millisecond

// sleepUntil sleeps in the kernel, with its microsecond-scale timer, until
// t. The goroutine holds no processor meanwhile, so the system under test
// keeps both CPUs.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedLoop runs conns connections, each sending its next operation as
// soon as the previous one completes, until the deadline passes or limit
// operations have been issued. Operation indices are handed out in issue
// order; the returned slice holds the issued ones in index order.
func closedLoop(ctx context.Context, deadline time.Time, limit, conns int, send func(c, i int) error) []op {
	ops := make([]op, limit)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				now := time.Now()
				ops[i].due, ops[i].ready, ops[i].start = now, now, now
				ops[i].err = send(c, i)
				ops[i].end = time.Now()
			}
		}(c)
	}
	wg.Wait()
	n := min(int(next.Load()), limit)
	return ops[:n]
}

// serve serves h on a fresh loopback listener until the returned server is
// closed.
func serve(h http.Handler) (*http.Server, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(lis) }()
	return srv, "http://" + lis.Addr().String(), nil
}
