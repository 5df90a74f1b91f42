package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"heteropim/internal/hw"
	"heteropim/internal/sim"
)

// The events microbenchmark isolates the engine's scheduling hot path:
// chains of events where each event reschedules its successor, the
// pattern the executor's device/section state machines produce. The
// closure side builds one fresh capturing closure per event (exactly
// what the executor did before the typed-event conversion); the typed
// side schedules an 8-byte sim.Ev naming its chain and keeps the same
// operands in handler state indexed by that chain, as the executor keeps
// its event operands in the task.

const (
	eventChains  = 16 // concurrent chains, so the heap holds real state
	kindTick     = sim.EventKind(1)
	eventDelay   = hw.Seconds(1e-9)
	benchEvents  = 400_000 // per timed run
	allocsEvents = 20_000  // per AllocsPerRun body

	// One timed run takes about 15 ms, so single runs swing with host
	// noise; a sample repeats runs until it covers eventsSampleWall, and
	// the gate reads the median ratio over eventsPairs alternating
	// closure/typed sample pairs.
	eventsSampleWall = 250 * time.Millisecond
	eventsPairs      = 7
)

// tickChain is one typed chain's operands: its countdown and
// accumulator.
type tickChain struct {
	left int32
	acc  float64
}

// tickHandler drives the typed chains: each event advances the chain
// its Idx names and reschedules it.
type tickHandler struct {
	eng    *sim.Engine
	chains [eventChains]tickChain
}

func (h *tickHandler) HandleEvent(ev sim.Ev) {
	c := &h.chains[ev.Idx]
	if ev.Kind != kindTick || c.left == 0 {
		return
	}
	c.left--
	c.acc++
	if err := h.eng.AfterEv(eventDelay, ev); err != nil {
		panic(err)
	}
}

// runTypedEvents processes n events through the typed path and returns
// the engine's processed count delta.
func runTypedEvents(eng *sim.Engine, n int) uint64 {
	eng.Reset()
	h := &tickHandler{eng: eng}
	eng.SetHandler(h)
	before := eng.Processed()
	for c := 0; c < eventChains; c++ {
		h.chains[c] = tickChain{left: int32(n / eventChains)}
		if err := eng.AfterEv(eventDelay, sim.Ev{Kind: kindTick, Idx: int32(c)}); err != nil {
			panic(err)
		}
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return eng.Processed() - before
}

// runClosureEvents processes n events through the legacy closure path,
// allocating one capturing closure per event like the pre-conversion
// executor did.
func runClosureEvents(eng *sim.Engine, n int) uint64 {
	eng.Reset()
	before := eng.Processed()
	var schedule func(left int32, acc float64)
	schedule = func(left int32, acc float64) {
		if left == 0 {
			return
		}
		if err := eng.After(eventDelay, func() { schedule(left-1, acc+1) }); err != nil {
			panic(err)
		}
	}
	for c := 0; c < eventChains; c++ {
		schedule(int32(n/eventChains), 0)
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return eng.Processed() - before
}

// eventsSide is one engine variant's measurements: the median of its
// samples and its per-event allocation cost.
type eventsSide struct {
	// Seconds is the median sample's wall time per benchEvents run.
	Seconds        float64 `json:"seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// shardedEvents measures the sharded engine path: multiStacks engines
// each chew through an equal slice of the event volume on the worker
// pool, the execution shape of a multi-stack training run.
type shardedEvents struct {
	Shards         int     `json:"shards"`
	EventsPerShard int     `json:"events_per_shard"`
	Seconds        float64 `json:"seconds"`
	// PerShard is each shard engine's events/sec over the run's wall
	// clock (shards share cores, so these sum to Aggregate).
	PerShard []float64 `json:"per_shard_events_per_sec"`
	// Aggregate is total events over wall-clock seconds across all
	// shard engines.
	Aggregate float64 `json:"aggregate_events_per_sec"`
}

// eventsReport is the BENCH_events.json shape.
type eventsReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Events     int `json:"events"`
	// Pairs alternating closure/typed samples were taken, each covering
	// at least SampleSeconds of wall time.
	Pairs         int     `json:"pairs"`
	SampleSeconds float64 `json:"sample_seconds"`
	// Closure is the legacy func()-per-event engine path; Typed is the
	// sim.Ev path the executor now uses.
	Closure eventsSide `json:"closure"`
	Typed   eventsSide `json:"typed"`
	// Ratios are the per-pair typed-over-closure events/sec ratios;
	// Speedup is their median, SpeedupIQR their interquartile range.
	Ratios     []float64 `json:"ratios"`
	Speedup    float64   `json:"speedup"`
	SpeedupIQR float64   `json:"speedup_iqr"`
	// Sharded runs the typed path on per-stack engines in parallel.
	Sharded shardedEvents `json:"sharded"`
}

// measureSharded times multiStacks typed engines each processing an
// equal share of `total` events on the default worker pool (best of
// three), reporting per-shard and aggregate events/sec.
func measureSharded(total int) shardedEvents {
	engs := make([]*sim.Engine, multiStacks)
	for i := range engs {
		engs[i] = sim.New()
	}
	perShard := total / multiStacks
	runShardEngines(engs, perShard/4, 0) // warm
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if got := runShardEngines(engs, perShard, 0); got < uint64(multiStacks*perShard) {
			panic(fmt.Sprintf("shard engines processed %d events, want >= %d", got, multiStacks*perShard))
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	s := shardedEvents{
		Shards:         multiStacks,
		EventsPerShard: perShard,
		Seconds:        best.Seconds(),
		Aggregate:      float64(multiStacks*perShard) / best.Seconds(),
	}
	for i := 0; i < multiStacks; i++ {
		s.PerShard = append(s.PerShard, float64(perShard)/best.Seconds())
	}
	return s
}

// sampleEvents repeats benchEvents-event runs until the sample covers
// eventsSampleWall, returning its events/sec.
func sampleEvents(eng *sim.Engine, run func(*sim.Engine, int) uint64) float64 {
	start := time.Now()
	for runs := 1; ; runs++ {
		if got := run(eng, benchEvents); got < benchEvents {
			panic(fmt.Sprintf("processed %d events, want >= %d", got, benchEvents))
		}
		if d := time.Since(start); d >= eventsSampleWall {
			return float64(runs*benchEvents) / d.Seconds()
		}
	}
}

// quantile reads the p-th quantile (0..1) of sorted samples,
// interpolating linearly between neighbours.
func quantile(sorted []float64, p float64) float64 {
	x := p * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

// median reads the middle of unsorted samples.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// measureEventPairs takes eventsPairs closure/typed sample pairs,
// alternating which side runs first so drift in host load hits both
// alike, and returns each side's samples in events/sec.
func measureEventPairs() (closure, typed []float64) {
	ce, te := sim.New(), sim.New()
	// Warm the heap slabs and handler structures.
	runClosureEvents(ce, allocsEvents)
	runTypedEvents(te, allocsEvents)
	for i := 0; i < eventsPairs; i++ {
		var c, t float64
		if i%2 == 0 {
			c = sampleEvents(ce, runClosureEvents)
			t = sampleEvents(te, runTypedEvents)
		} else {
			t = sampleEvents(te, runTypedEvents)
			c = sampleEvents(ce, runClosureEvents)
		}
		closure, typed = append(closure, c), append(typed, t)
	}
	return closure, typed
}

// eventsSideOf summarizes one side's samples and measures its
// per-event allocation cost.
func eventsSideOf(samples []float64, run func(*sim.Engine, int) uint64) eventsSide {
	eng := sim.New()
	run(eng, allocsEvents)
	allocs := testing.AllocsPerRun(5, func() { run(eng, allocsEvents) })
	evps := median(samples)
	return eventsSide{
		Seconds:        benchEvents / evps,
		EventsPerSec:   evps,
		AllocsPerEvent: allocs / float64(allocsEvents),
	}
}

// writeEventsJSON benchmarks the closure vs typed event paths, writes
// the comparison to path, and fails if the typed path still allocates
// per event or its median throughput gain is below minRatio. The gates live
// in-tool so CI only has to run the command.
func writeEventsJSON(path string, minRatio float64) error {
	rep := eventsReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Events:        benchEvents,
		Pairs:         eventsPairs,
		SampleSeconds: eventsSampleWall.Seconds(),
	}
	closure, typed := measureEventPairs()
	rep.Closure = eventsSideOf(closure, runClosureEvents)
	rep.Typed = eventsSideOf(typed, runTypedEvents)
	for i := range closure {
		rep.Ratios = append(rep.Ratios, typed[i]/closure[i])
	}
	sorted := append([]float64(nil), rep.Ratios...)
	sort.Float64s(sorted)
	rep.Speedup = quantile(sorted, 0.5)
	rep.SpeedupIQR = quantile(sorted, 0.75) - quantile(sorted, 0.25)
	rep.Sharded = measureSharded(benchEvents)
	fmt.Fprintf(os.Stderr,
		"pimbench: events closure=%.3gM/s (%.2f allocs/ev) typed=%.3gM/s (%.4f allocs/ev) speedup median=%.2fx IQR=%.2f over %d pairs sharded=%.3gM/s aggregate over %d shards\n",
		rep.Closure.EventsPerSec/1e6, rep.Closure.AllocsPerEvent,
		rep.Typed.EventsPerSec/1e6, rep.Typed.AllocsPerEvent, rep.Speedup, rep.SpeedupIQR,
		rep.Pairs, rep.Sharded.Aggregate/1e6, rep.Sharded.Shards)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	// Allow sync.Pool / slab-growth noise, not a real per-event cost.
	if rep.Typed.AllocsPerEvent > 0.01 {
		return fmt.Errorf("typed path allocates %.4f objects/event, want 0 (see %s)",
			rep.Typed.AllocsPerEvent, path)
	}
	if rep.Speedup < minRatio {
		return fmt.Errorf("typed path median speedup %.2fx below the %.2fx floor (see %s)",
			rep.Speedup, minRatio, path)
	}
	return nil
}
