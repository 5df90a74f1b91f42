package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopShowsStall: one stalled response must show in the latency
// of every request that was due while it stalled, because latency runs
// from the due time, not from when a connection was free.
func TestOpenLoopShowsStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	offsets := make([]time.Duration, 40)
	for i := range offsets {
		offsets[i] = time.Duration(i) * 10 * time.Millisecond
	}
	out := openLoop(context.Background(), offsets, 1, func(ctx context.Context, _, _ int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	for _, o := range out {
		if o.Err != nil {
			t.Fatalf("request %d: %v", o.Index, o.Err)
		}
	}
	if l := out[4].Latency(); l < stall {
		t.Fatalf("stalled request latency %v, want >= %v", l, stall)
	}
	// Request 5 was due 10ms into the stall and could only be sent once
	// it ended: it waited about stall-10ms before it was even sent.
	if late := out[5].Late(); late < stall-50*time.Millisecond {
		t.Fatalf("request behind the stall sent %v late, want about %v", late, stall-10*time.Millisecond)
	}
	if l := out[5].Latency(); l < stall-50*time.Millisecond {
		t.Fatalf("request behind the stall shows %v latency; the stall is hidden", l)
	}
	// Requests due within the stall all show part of it.
	for i := 5; i < 30; i++ {
		if out[i].Latency() < 10*time.Millisecond {
			t.Fatalf("request %d due during the stall shows only %v", i, out[i].Latency())
		}
	}
}

// TestOpenLoopCountsFailures: a failed request stays in the outcomes.
func TestOpenLoopCountsFailures(t *testing.T) {
	offsets := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	out := openLoop(context.Background(), offsets, 8, func(ctx context.Context, _, i int) error {
		if i == 1 {
			return context.DeadlineExceeded
		}
		return nil
	})
	if len(out) != 3 || out[1].Err == nil || out[0].Err != nil {
		t.Fatalf("outcomes %+v", out)
	}
}
