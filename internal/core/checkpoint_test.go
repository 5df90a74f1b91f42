package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/sim"
)

// checkpointModels are the graphs the delta-simulation properties are
// pinned on: the toy graph plus two real CNNs with different shapes.
func checkpointModels(t *testing.T) []*nn.Graph {
	t.Helper()
	vgg, err := nn.Build(nn.VGG19Name)
	if err != nil {
		t.Fatal(err)
	}
	alex, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	return []*nn.Graph{smallGraph(), alex, vgg}
}

// resultJSON renders a result for bit-exact comparison.
func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointReplayBitIdentical is the delta-simulation property
// test: for every platform and model, forking a run from its checkpoint
// under a compatible unit budget produces a result byte-identical to
// simulating that budget from scratch. Platforms without a fixed pool
// (CPU, GPU, Progr PIM) must take the graceful no-checkpoint path while
// still reproducing the base run exactly.
func TestCheckpointReplayBitIdentical(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	kinds := []hw.ConfigKind{hw.ConfigCPU, hw.ConfigGPU, hw.ConfigProgrPIM, hw.ConfigFixedPIM, hw.ConfigHeteroPIM}
	for _, g := range checkpointModels(t) {
		for _, kind := range kinds {
			cfg := hw.PaperConfigScaled(kind, 1)
			opts := HeteroOptions()
			cp, base, err := CheckpointRun(g, cfg, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Model, kind, err)
			}
			scratch, err := RunPIM(g, cfg, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Model, kind, err)
			}
			if resultJSON(t, base) != resultJSON(t, scratch) {
				t.Fatalf("%s/%v: probe result differs from a plain run", g.Model, kind)
			}
			if cfg.FixedPIM.Units == 0 {
				if cp != nil {
					t.Fatalf("%s/%v: checkpoint from a platform with no fixed pool", g.Model, kind)
				}
				continue
			}
			if cp == nil {
				t.Fatalf("%s/%v: no checkpoint from a fixed-pool run", g.Model, kind)
			}
			lo, hi := cp.UnitRange()
			if lo < 1 || hi < cfg.FixedPIM.Units {
				t.Fatalf("%s/%v: base units %d outside watched range [%d, %d]",
					g.Model, kind, cfg.FixedPIM.Units, lo, hi)
			}
			variants := []int{lo, (lo + cfg.FixedPIM.Units) / 2, cfg.FixedPIM.Units}
			for _, u := range variants {
				if u < lo || (hi > 0 && u > hi) {
					continue
				}
				cfg2 := cfg
				cfg2.FixedPIM.Units = u
				got, err := cp.Replay(cfg2)
				if err != nil {
					t.Fatalf("%s/%v u=%d: replay: %v", g.Model, kind, u, err)
				}
				want, err := RunPIM(g, cfg2, opts)
				if err != nil {
					t.Fatalf("%s/%v u=%d: scratch: %v", g.Model, kind, u, err)
				}
				if resultJSON(t, got) != resultJSON(t, want) {
					t.Errorf("%s/%v u=%d: replay result differs from scratch\nreplay:  %s\nscratch: %s",
						g.Model, kind, u, resultJSON(t, got), resultJSON(t, want))
				}
			}
			if err := cp.Compatible(hw.SystemConfig{}); err == nil {
				t.Fatalf("%s/%v: compatibility check accepted an unrelated config", g.Model, kind)
			}
		}
	}
}

// TestCheckpointConcurrentReplays forks one checkpoint into four
// concurrent replays (exercised under -race in CI) and checks each
// against its from-scratch result.
func TestCheckpointConcurrentReplays(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions()
	cp, _, err := CheckpointRun(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint")
	}
	lo, _ := cp.UnitRange()
	base := cfg.FixedPIM.Units
	units := []int{base, lo, lo + (base-lo)/2, lo + (base-lo)/3}
	want := make([]string, len(units))
	for i, u := range units {
		cfg2 := cfg
		cfg2.FixedPIM.Units = u
		r, err := RunPIM(g, cfg2, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultJSON(t, r)
	}
	var wg sync.WaitGroup
	got := make([]string, len(units))
	errs := make([]error, len(units))
	for i, u := range units {
		wg.Add(1)
		go func(i, u int) {
			defer wg.Done()
			cfg2 := cfg
			cfg2.FixedPIM.Units = u
			r, err := cp.Replay(cfg2)
			if err != nil {
				errs[i] = err
				return
			}
			b, _ := json.Marshal(r)
			got[i] = string(b)
		}(i, u)
	}
	wg.Wait()
	for i := range units {
		if errs[i] != nil {
			t.Fatalf("u=%d: %v", units[i], errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("u=%d: concurrent replay differs from scratch", units[i])
		}
	}
}

// TestCaptureAtRejectsPostGrantPoints pins the honesty of the capture
// guard: asking for a checkpoint at or past the first fixed-pool grant
// must fail rather than freeze budget-specific state.
func TestCaptureAtRejectsPostGrantPoints(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	g := smallGraph()
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions().withDefaults()
	// Find the horizon via a probe.
	x, err := newExec(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &capWatch{maxUnits: 1 << 30}
	x.watch = w
	x.seed()
	if _, err := x.drainRun(); err != nil {
		t.Fatal(err)
	}
	x.teardown()
	if w.horizon == 0 {
		t.Fatal("toy hetero run never granted fixed units")
	}
	if _, err := captureAt(g, cfg, opts, w.horizon, false); err == nil {
		t.Fatal("captureAt accepted a point at the first grant")
	}
	if cp, err := captureAt(g, cfg, opts, w.horizon-1, false); err != nil || cp == nil {
		t.Fatalf("captureAt refused the last pre-grant point: %v", err)
	}
}

// TestCheckpointRefusesInstrumentedRuns: replayed prefixes cannot
// re-emit collector side effects, so instrumented options are rejected.
func TestCheckpointRefusesInstrumentedRuns(t *testing.T) {
	g := smallGraph()
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions()
	opts.Census = &PlacementCensus{}
	if _, _, err := CheckpointRun(g, cfg, opts); err == nil {
		t.Fatal("expected refusal for instrumented options")
	}
}

// TestTaskSize pins the task's footprint: every pooled arena holds one
// task per (op, step), so a field added here grows every arena. The
// pending event's operands (slots, frac, start) fit in 16 bytes over
// the task's structural state.
func TestTaskSize(t *testing.T) {
	if n := unsafe.Sizeof(task{}); n > 112 {
		t.Fatalf("task is %d bytes, want <= 112", n)
	}
}

// TestReplayEveryBoundary deep-captures a small Hetero run at every
// event boundary that captures, restores each checkpoint under a budget
// inside its window and checks the fork against a scratch run of that
// budget: the restored executor must hold the scratch run's pending
// events, at most one per task, and the in-flight operands they read
// (liveOperands), and the drained fork must produce the scratch run's
// result bytes. A replay that loses an in-flight operand fails here at
// the boundary that needs it. The pass with task templates off builds
// every slab fresh, so a lost operand reads zero instead of a pooled
// arena's stale copy of the right value.
func TestReplayEveryBoundary(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	for _, templates := range []bool{false, true} {
		t.Run(fmt.Sprintf("templates=%v", templates), func(t *testing.T) {
			defer setTaskTemplates(setTaskTemplates(templates))
			replayEveryBoundary(t)
		})
	}
}

func replayEveryBoundary(t *testing.T) {
	g := smallGraph()
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions().withDefaults()
	_, total, baseU := deepProbe(t, g, cfg, opts)
	scratch := map[int]string{}
	captured, inflight := 0, 0
	for k := uint64(1); k < total; k++ {
		cp, err := captureAt(g, cfg, opts, k, true)
		if err != nil {
			continue
		}
		captured++
		u, hi := cp.UnitRange()
		if u == baseU && hi != math.MaxInt {
			u = hi
		}
		cfg2 := cfg
		cfg2.FixedPIM.Units = u

		// The scratch run of budget u, stopped at the same boundary.
		ref, err := newExec(g, cfg2, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref.seed()
		if err := ref.eng.RunUntil(k); err != nil {
			t.Fatal(err)
		}
		fork, err := cp.restore(cfg2)
		if err != nil {
			t.Fatalf("k=%d u=%d: %v", k, u, err)
		}
		refCp, err := ref.eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		forkCp, err := fork.eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if forkCp.Pending() != refCp.Pending() {
			t.Fatalf("k=%d: fork holds %d pending events, scratch %d", k, forkCp.Pending(), refCp.Pending())
		}
		// The operands live in the task, so a task may have at most
		// one event pending.
		pendingTask := map[int32]bool{}
		for i := 0; i < refCp.Pending(); i++ {
			ev := refCp.Event(i)
			if pendingTask[ev.Idx] {
				t.Fatalf("k=%d: task %d has two events pending", k, ev.Idx)
			}
			pendingTask[ev.Idx] = true
			if got := forkCp.Event(i); got != ev {
				t.Fatalf("k=%d: pending event %d is %+v, scratch %+v", k, i, got, ev)
			}
			a, b := liveOperands(ev, fork.taskAt(ev.Idx)), liveOperands(ev, ref.taskAt(ev.Idx))
			if a != b {
				t.Fatalf("k=%d: event kind %d in-flight operands %+v, scratch %+v", k, ev.Kind, a, b)
			}
			if ev.Kind == evSectionDone {
				inflight++
			}
		}
		ref.teardown()

		got, err := fork.drainRun()
		fork.teardown()
		if err != nil {
			t.Fatalf("k=%d u=%d: %v", k, u, err)
		}
		want, ok := scratch[u]
		if !ok {
			r, err := RunPIM(g, cfg2, opts)
			if err != nil {
				t.Fatal(err)
			}
			want = resultJSON(t, r)
			scratch[u] = want
		}
		if resultJSON(t, got) != want {
			t.Fatalf("k=%d u=%d: replay differs from scratch", k, u)
		}
	}
	if captured < int(total)/2 || inflight == 0 {
		t.Fatalf("only %d of %d boundaries captured (%d pending sections checked)", captured, total-1, inflight)
	}
	t.Logf("%d events, %d boundaries replayed under %d budgets, %d pending sections checked",
		total, captured, len(scratch), inflight)
}

// liveOperands returns the task operands that ev's handler reads. The
// others are stale, left by the task's earlier events and never read,
// so they are zero here.
func liveOperands(ev sim.Ev, t *task) inflightSnap {
	o := inflightSnap{task: t.idx}
	switch ev.Kind {
	case evSectionDone:
		o.slots, o.frac, o.start = t.slots, t.frac, t.start
	case evItemDone:
		o.slots, o.start = t.slots, t.start
	case evResidualDone:
		o.start = t.start
	}
	return o
}
