package heteropim

import (
	"encoding/json"
	"strings"
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

func publicResultJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A cell's zero-valued multi-stack and frequency axes must reproduce
// Run byte for byte — the degenerate single-stack case routes through
// the unchanged executor.
func TestRunWithOptionsZeroValueIsRun(t *testing.T) {
	base, err := Run(ConfigHeteroPIM, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []BatchCell{
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 1},
		{Config: ConfigHeteroPIM, Model: AlexNet, FreqScale: 1},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 1, AllReduce: AllReduceTree},
	} {
		if publicResultJSON(t, base) != publicResultJSON(t, runCell(t, c)) {
			t.Errorf("cell %+v diverged from Run", c)
		}
	}
}

func TestRunWithOptionsMultiStack(t *testing.T) {
	single, err := Run(ConfigHeteroPIM, VGG19)
	if err != nil {
		t.Fatal(err)
	}
	ring := runCell(t, BatchCell{Config: ConfigHeteroPIM, Model: VGG19, Stacks: 4, AllReduce: AllReduceRing})
	if ring.Stacks != 4 || ring.AllReduce != AllReduceRing {
		t.Fatalf("labels: stacks=%d allreduce=%q", ring.Stacks, ring.AllReduce)
	}
	if !strings.HasSuffix(ring.Config, " x4") {
		t.Errorf("config %q lacks the x4 suffix", ring.Config)
	}
	if ring.StepTime != ring.StackStepTime+ring.AllReduceTime {
		t.Errorf("StepTime %g != StackStepTime %g + AllReduceTime %g",
			ring.StepTime, ring.StackStepTime, ring.AllReduceTime)
	}
	// Strong scaling: 4 stacks must beat 1 stack. Mild superlinearity is
	// possible (chunk-granule rounding favors the smaller shard batch),
	// so only guard against absurd scaling.
	if ring.StepTime >= single.StepTime {
		t.Errorf("4-stack step %g not faster than single-stack %g", ring.StepTime, single.StepTime)
	}
	if ring.StepTime < single.StepTime/8 {
		t.Errorf("4-stack step %g implausibly fast vs single-stack %g", ring.StepTime, single.StepTime)
	}
	// Ring moves the same bytes in more, smaller phases; with VGG-19's
	// large gradient it must synchronize faster than the tree.
	tree := runCell(t, BatchCell{Config: ConfigHeteroPIM, Model: VGG19, Stacks: 4, AllReduce: AllReduceTree})
	if ring.AllReduceTime >= tree.AllReduceTime {
		t.Errorf("ring all-reduce %g not below tree %g for a large gradient",
			ring.AllReduceTime, tree.AllReduceTime)
	}
	// Energy accounts for all stacks: a 4-stack system burns more power
	// than one stack.
	if ring.AvgPower <= single.AvgPower {
		t.Errorf("4-stack power %g not above single-stack %g", ring.AvgPower, single.AvgPower)
	}
	if ring.StackMaxTemp <= 0 {
		t.Errorf("StackMaxTemp %g, want > 0", ring.StackMaxTemp)
	}
}

func TestRunWithOptionsRejects(t *testing.T) {
	for _, c := range []BatchCell{
		{Config: ConfigCPU, Model: AlexNet, Stacks: 2},
		{Config: ConfigGPU, Model: AlexNet, Stacks: 2},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 2, AllReduce: "butterfly"},
		// An unknown schedule is rejected even where it would be unused.
		{Config: ConfigHeteroPIM, Model: AlexNet, AllReduce: "butterfly"},
	} {
		if _, err := BatchRun([]BatchCell{c}); err == nil {
			t.Errorf("BatchRun accepted %+v, want an error", c)
		}
		if _, err := RunObserved(c, NewMetrics()); err == nil {
			t.Errorf("RunObserved accepted %+v, want an error", c)
		}
	}
}

// BatchCell.Stacks must match a direct core.RunMulti call on the
// cell's global-batch graph bit for bit, like every other cell axis.
func TestBatchRunMultiStackCells(t *testing.T) {
	cells := []BatchCell{
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 2, AllReduce: AllReduceRing},
		{Config: ConfigFixedPIM, Model: AlexNet, Stacks: 2, AllReduce: AllReduceTree},
		{Config: ConfigHeteroPIM, Model: AlexNet, BatchSize: 64, FreqScale: 2, Stacks: 4},
	}
	got, err := BatchRun(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		g, err := nn.BuildWithBatch(c.Model, c.BatchSize)
		if err != nil {
			t.Fatal(err)
		}
		scale := c.FreqScale
		if scale == 0 {
			scale = 1
		}
		sched := core.ReduceSchedule(c.AllReduce)
		r, err := core.RunMulti(c.Config, g, hw.PaperConfigScaled(c.Config, scale), c.Stacks, sched)
		if err != nil {
			t.Fatal(err)
		}
		if publicResultJSON(t, got[i]) != publicResultJSON(t, wrap(r)) {
			t.Errorf("cell %d: batch result diverged from the direct run", i)
		}
	}
}
