package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one open-loop request as the generator saw it. All times
// are offsets from the schedule's start.
type outcome struct {
	Due   time.Duration // when the schedule said to send it
	Sent  time.Duration // when a connection was free to send it
	Done  time.Duration // when the response was complete
	Err   error
	Index int
}

// Latency is the wait the user saw: from when the request was due, so a
// stall also counts against every request queued behind it.
func (o outcome) Latency() time.Duration { return o.Done - o.Due }

// Late is how far behind schedule the generator sent the request.
func (o outcome) Late() time.Duration { return o.Sent - o.Due }

// openLoop sends requests at the given offsets regardless of how fast
// responses come back. At most conns requests are in flight (capped at
// the host's CPU count), each on its own worker and connection; a
// request due while every worker is busy is sent as soon as one frees
// up, and its latency still runs from its due time. Every request is
// attempted; do's error marks it failed. It returns one outcome per
// offset, in schedule order, once every request has completed.
func openLoop(ctx context.Context, offsets []time.Duration, conns int, do func(ctx context.Context, worker, i int) error) []outcome {
	if n := runtime.NumCPU(); conns > n {
		conns = n
	}
	if conns < 1 {
		conns = 1
	}
	out := make([]outcome, len(offsets))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				due := offsets[i]
				if wait := due - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				o := outcome{Index: i, Due: due, Sent: time.Since(start)}
				if err := ctx.Err(); err != nil {
					o.Err = err
				} else {
					o.Err = do(ctx, worker, i)
				}
				o.Done = time.Since(start)
				out[i] = o
			}
		}(w)
	}
	wg.Wait()
	return out
}
