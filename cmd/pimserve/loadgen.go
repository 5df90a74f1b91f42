package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"heteropim"
	"heteropim/internal/serve"
)

// runSelfcheck is the acceptance harness for the serving layer: start
// a real daemon on an ephemeral port, drive the scenario's load at it
// (nil plan: the embedded default — 8 mixed cells, closed loop), verify
// zero errors / byte-identity / the dedup gate, then exercise the real
// SIGTERM drain path and write BENCH_serve.json.
func runSelfcheck(plan *heteropim.ScenarioPlan, clients int, dedupMin float64, benchOut string, workers, queue int, timeout time.Duration) error {
	if plan == nil {
		p, err := serve.DefaultSelfcheckPlan()
		if err != nil {
			return err
		}
		plan = p
	}
	srv := serve.New(serve.Options{Workers: workers, QueueCapacity: queue, JobTimeout: timeout})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	baseURL := "http://" + ln.Addr().String()
	hs := serve.NewHTTPServer(srv.Handler())
	go func() { _ = hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "pimserve: selfcheck against %s (scenario %q, %d cells)\n",
		baseURL, plan.Name, len(plan.Cells))

	// Arm the real signal path before the load so the drain below goes
	// through the same SIGTERM plumbing a supervisor would use.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	rep, err := serve.ScenarioLoadGen(baseURL, plan, clients, srv)
	if err != nil {
		return err
	}

	// Graceful drain via a genuine SIGTERM to ourselves.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		return fmt.Errorf("selfcheck: SIGTERM never arrived")
	}
	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drainErr := srv.Drain(dctx)
	shutdownErr := hs.Shutdown(dctx)
	rep.DrainClean = drainErr == nil && shutdownErr == nil

	f, err := os.Create(benchOut)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"pimserve: selfcheck: requests=%d errors=%d live_runs=%d dedup=%.1fx p50=%.1fms p99=%.1fms identical=%t drain=%t -> %s\n",
		rep.Requests, rep.Errors, rep.LiveRuns, rep.DedupRatio,
		rep.LatencyP50Ms, rep.LatencyP99Ms, rep.ByteIdentical, rep.DrainClean, benchOut)

	switch {
	case rep.Errors > 0:
		return fmt.Errorf("selfcheck: %d client errors", rep.Errors)
	case !rep.ByteIdentical:
		return fmt.Errorf("selfcheck: served results not byte-identical to direct runs")
	case rep.DedupRatio < dedupMin:
		return fmt.Errorf("selfcheck: dedup ratio %.2fx below the %.1fx floor", rep.DedupRatio, dedupMin)
	case drainErr != nil:
		return fmt.Errorf("selfcheck: drain: %w", drainErr)
	case shutdownErr != nil:
		return fmt.Errorf("selfcheck: shutdown: %w", shutdownErr)
	}
	return nil
}
