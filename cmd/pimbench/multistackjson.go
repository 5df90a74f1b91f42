package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"heteropim"
	"heteropim/internal/runner"
	"heteropim/internal/sim"
)

// The multistack benchmark measures the tentpole claim of the sharded
// executor: M per-stack event engines advanced in parallel on the
// worker pool beat one engine grinding through the same event volume,
// while the merged simulation results stay byte-identical whatever the
// worker count. The engine side reuses the eventsjson tick chains (the
// executor's real scheduling pattern); the identity and determinism
// gates run the full multi-stack cell pipeline (BatchRun).

const (
	multiStacks      = 8       // shard count of the throughput comparison
	multiShardEvents = 250_000 // events per shard engine
)

// runShardEngines advances `stacks` independent engines, each through n
// typed events, on `workers` pool workers. Returns the summed processed
// count. Engines are reused across timed runs (the executor pools its
// engines the same way).
func runShardEngines(engs []*sim.Engine, n, workers int) uint64 {
	counts, err := runner.Map(context.Background(), len(engs), workers,
		func(_ context.Context, i int) (uint64, error) {
			return runTypedEvents(engs[i], n), nil
		})
	if err != nil {
		panic(err)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total
}

// multiPoint compares single-engine vs sharded throughput at one
// GOMAXPROCS setting. Both sides process stacks*events_per_shard events.
type multiPoint struct {
	GOMAXPROCS          int     `json:"gomaxprocs"`
	Workers             int     `json:"workers"`
	SingleSeconds       float64 `json:"single_seconds"`
	SingleEventsPerSec  float64 `json:"single_events_per_sec"`
	ShardedSeconds      float64 `json:"sharded_seconds"`
	ShardedEventsPerSec float64 `json:"sharded_events_per_sec"`
	// Speedup is sharded aggregate events/sec over single-engine.
	Speedup float64 `json:"speedup"`
}

// multistackReport is the BENCH_multistack.json shape.
type multistackReport struct {
	NumCPU         int `json:"num_cpu"`
	Stacks         int `json:"stacks"`
	EventsPerShard int `json:"events_per_shard"`
	TotalEvents    int `json:"total_events"`
	// M1Identical reports whether a Stacks:1 cell reproduced
	// Run byte for byte (JSON of the public Result).
	M1Identical bool `json:"m1_identical"`
	// DeterministicAcrossWorkers reports whether an M=2 run produced the
	// same bytes under 1, 4 and 8 pool workers (cold cache each time).
	DeterministicAcrossWorkers bool `json:"deterministic_across_workers"`
	// SpeedupFloor is the gate applied to the widest point's Speedup;
	// 0 means the host has too few cores to gate on (see Note).
	SpeedupFloor float64      `json:"speedup_floor"`
	Note         string       `json:"note,omitempty"`
	Points       []multiPoint `json:"points"`
}

// measureMultiPoint times both sides (best of three) at the current
// GOMAXPROCS with the given pool width.
func measureMultiPoint(engs []*sim.Engine, workers int) multiPoint {
	p := multiPoint{GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers}
	total := uint64(multiStacks * multiShardEvents)
	single := engs[0]
	// Warm both sides.
	runTypedEvents(single, multiShardEvents)
	runShardEngines(engs, multiShardEvents/4, workers)

	bestS, bestM := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if got := runTypedEvents(single, multiStacks*multiShardEvents); got < total {
			panic(fmt.Sprintf("single engine processed %d events, want >= %d", got, total))
		}
		if d := time.Since(start); d < bestS {
			bestS = d
		}
		start = time.Now()
		if got := runShardEngines(engs, multiShardEvents, workers); got < total {
			panic(fmt.Sprintf("shard engines processed %d events, want >= %d", got, total))
		}
		if d := time.Since(start); d < bestM {
			bestM = d
		}
	}
	p.SingleSeconds = bestS.Seconds()
	p.SingleEventsPerSec = float64(total) / p.SingleSeconds
	p.ShardedSeconds = bestM.Seconds()
	p.ShardedEventsPerSec = float64(total) / p.ShardedSeconds
	p.Speedup = p.ShardedEventsPerSec / p.SingleEventsPerSec
	return p
}

// resultBytes canonicalizes a public Result for byte comparison.
func resultBytes(r heteropim.Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return b
}

// checkM1Identity verifies the single-stack degenerate case: Stacks=1
// must route through the plain executor and reproduce Run exactly.
func checkM1Identity() (bool, error) {
	base, err := heteropim.Run(heteropim.ConfigHeteroPIM, heteropim.VGG19)
	if err != nil {
		return false, err
	}
	one, err := heteropim.BatchRun([]heteropim.BatchCell{
		{Config: heteropim.ConfigHeteroPIM, Model: heteropim.VGG19, Stacks: 1}})
	if err != nil {
		return false, err
	}
	return string(resultBytes(base)) == string(resultBytes(one[0])), nil
}

// checkWorkerDeterminism runs an M=2 training step under three pool
// widths with a cold cache each time and compares the bytes.
func checkWorkerDeterminism() (bool, error) {
	var ref []byte
	for _, w := range []int{1, 4, 8} {
		prev := heteropim.SetParallelism(w)
		heteropim.ResetSimulationCache()
		r, err := heteropim.BatchRun([]heteropim.BatchCell{{Config: heteropim.ConfigHeteroPIM,
			Model: heteropim.VGG19, Stacks: 2, AllReduce: heteropim.AllReduceRing}})
		heteropim.SetParallelism(prev)
		if err != nil {
			return false, err
		}
		b := resultBytes(r[0])
		if ref == nil {
			ref = b
		} else if string(ref) != string(b) {
			return false, nil
		}
	}
	return true, nil
}

// multistackFloor picks the sharded-over-single speedup gate for this
// host. Perfect scaling would be min(NumCPU, stacks)x; the floor leaves
// headroom for merge overhead and CI-runner noise. Hosts with a single
// core cannot demonstrate parallel speedup at all, so the gate is
// waived there (determinism and identity still gate).
func multistackFloor(ncpu int) (floor float64, note string) {
	switch {
	case ncpu >= 8:
		return 3.0, ""
	case ncpu >= 2:
		return 0.65 * float64(ncpu), fmt.Sprintf("reduced floor: host has %d cores", ncpu)
	default:
		return 0, "single-core host: parallel speedup gate skipped, identity/determinism gates still apply"
	}
}

// writeMultistackJSON benchmarks one engine vs multiStacks shard
// engines at GOMAXPROCS 1 and NumCPU, verifies the M=1 identity and
// M=2 worker-count determinism of the full pipeline, and writes
// BENCH_multistack.json. The gates live in-tool so CI only has to run
// the command.
func writeMultistackJSON(path string) error {
	ncpu := runtime.NumCPU()
	floor, note := multistackFloor(ncpu)
	rep := multistackReport{
		NumCPU:         ncpu,
		Stacks:         multiStacks,
		EventsPerShard: multiShardEvents,
		TotalEvents:    multiStacks * multiShardEvents,
		SpeedupFloor:   floor,
		Note:           note,
	}

	var err error
	if rep.M1Identical, err = checkM1Identity(); err != nil {
		return err
	}
	if rep.DeterministicAcrossWorkers, err = checkWorkerDeterminism(); err != nil {
		return err
	}

	engs := make([]*sim.Engine, multiStacks)
	for i := range engs {
		engs[i] = sim.New()
	}
	points := []int{1}
	if ncpu > 1 {
		points = append(points, ncpu)
	}
	orig := runtime.GOMAXPROCS(0)
	for _, p := range points {
		runtime.GOMAXPROCS(p)
		rep.Points = append(rep.Points, measureMultiPoint(engs, p))
	}
	runtime.GOMAXPROCS(orig)

	wide := rep.Points[len(rep.Points)-1]
	fmt.Fprintf(os.Stderr,
		"pimbench: multistack M=%d single=%.3gM/s sharded=%.3gM/s speedup=%.2fx (gomaxprocs=%d) m1_identical=%v deterministic=%v\n",
		multiStacks, wide.SingleEventsPerSec/1e6, wide.ShardedEventsPerSec/1e6,
		wide.Speedup, wide.GOMAXPROCS, rep.M1Identical, rep.DeterministicAcrossWorkers)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	if !rep.M1Identical {
		return fmt.Errorf("Stacks=1 result diverged from Run (see %s)", path)
	}
	if !rep.DeterministicAcrossWorkers {
		return fmt.Errorf("M=2 result depends on the worker count (see %s)", path)
	}
	if floor > 0 && wide.Speedup < floor {
		return fmt.Errorf("sharded speedup %.2fx below the %.2fx floor at %d cores (see %s)",
			wide.Speedup, floor, ncpu, path)
	}
	return nil
}
