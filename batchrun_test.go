package heteropim

import (
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// TestBatchRunMatchesSequentialRuns pins the BatchRun contract: each
// cell's result, in input order, is bit-identical to a direct executor
// call on the graph, configuration and options the paper's study of that
// axis prescribes, under the expected Config name. The references are
// spelled out per cell instead of going through the cell resolver, so
// they check it. The batch-size rows on variant and processor cells pin
// that those axes combine: the batch is the one the graph is built at.
func TestBatchRunMatchesSequentialRuns(t *testing.T) {
	build := func(m Model, batch int) *nn.Graph {
		g, err := nn.BuildWithBatch(m, batch)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	paper := hw.PaperConfigScaled
	pim := func(g *nn.Graph, cfg hw.SystemConfig, opts core.Options) func() (core.Result, error) {
		return func() (core.Result, error) { return core.RunPIM(g, cfg, opts) }
	}
	hetero := core.HeteroOptions
	variant := func(rc, op bool) core.Options {
		o := hetero()
		o.RC, o.OP = rc, op
		return o
	}
	rcOnlyTree := variant(true, false)
	rcOnlyTree.Stacks, rcOnlyTree.AllReduce = 2, core.ReduceTree
	cases := []struct {
		cell BatchCell
		want func() (core.Result, error)
		name string
	}{
		{BatchCell{Config: ConfigCPU, Model: AlexNet},
			func() (core.Result, error) { return core.RunCPU(build(AlexNet, 0), paper(hw.ConfigCPU, 1)), nil },
			"CPU"},
		{BatchCell{Config: ConfigHeteroPIM, Model: AlexNet},
			pim(build(AlexNet, 0), paper(hw.ConfigHeteroPIM, 1), hetero()), "Hetero PIM"},
		{BatchCell{Config: ConfigProgrPIM, Model: AlexNet},
			pim(build(AlexNet, 0), paper(hw.ConfigProgrPIM, 1), core.Options{NoCPUFallback: true, WideProgOps: true}),
			"Progr PIM"},
		{BatchCell{Config: ConfigHeteroPIM, Model: VGG19, FreqScale: 2},
			pim(build(VGG19, 0), paper(hw.ConfigHeteroPIM, 2), hetero()), "Hetero PIM"},
		{BatchCell{Model: AlexNet, Variant: &Variant{RecursiveKernels: true}},
			pim(build(AlexNet, 0), paper(hw.ConfigHeteroPIM, 1), variant(true, false)),
			"Hetero PIM(RC=true,OP=false)"},
		{BatchCell{Model: AlexNet, Variant: &Variant{RecursiveKernels: true, OperationPipeline: true}},
			pim(build(AlexNet, 0), paper(hw.ConfigHeteroPIM, 1), variant(true, true)),
			"Hetero PIM(RC=true,OP=true)"},
		{BatchCell{Config: ConfigGPU, Model: AlexNet, BatchSize: 64},
			func() (core.Result, error) { return core.RunGPU(build(AlexNet, 64), paper(hw.ConfigGPU, 1)), nil },
			"GPU"},
		{BatchCell{Config: ConfigHeteroPIM, Model: AlexNet, BatchSize: 64},
			pim(build(AlexNet, 64), paper(hw.ConfigHeteroPIM, 1), hetero()), "Hetero PIM"},
		{BatchCell{Model: DCGAN, Processors: 4},
			pim(build(DCGAN, 0), hw.HeteroConfigWithProcessors(4, 1), hetero()), "Hetero PIM-4P"},
		{BatchCell{Model: AlexNet, BatchSize: 256, Variant: &Variant{RecursiveKernels: true, OperationPipeline: true}},
			pim(build(AlexNet, 256), paper(hw.ConfigHeteroPIM, 1), variant(true, true)),
			"Hetero PIM(RC=true,OP=true)"},
		{BatchCell{Model: AlexNet, BatchSize: 256, Processors: 4},
			pim(build(AlexNet, 256), hw.HeteroConfigWithProcessors(4, 1), hetero()), "Hetero PIM-4P"},
		{BatchCell{Model: AlexNet, BatchSize: 256, Variant: &Variant{RecursiveKernels: true},
			Stacks: 2, AllReduce: AllReduceTree},
			pim(build(AlexNet, 256), paper(hw.ConfigHeteroPIM, 1), rcOnlyTree),
			"Hetero PIM(RC=true,OP=false) x2"},
	}
	cells := make([]BatchCell, len(cases))
	for i, tc := range cases {
		cells[i] = tc.cell
	}
	got, err := BatchRun(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		ref, err := tc.want()
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Config != tc.name {
			t.Errorf("cell %d: Config %q, want %q", i, got[i].Config, tc.name)
		}
		ref.Config.Name = tc.name
		if want := wrap(ref); got[i] != want {
			t.Errorf("cell %d: BatchRun diverged from the direct run:\n got %+v\nwant %+v",
				i, got[i], want)
		}
	}
}

// runCell runs one cell the way the CLIs do: a one-cell BatchRun.
func runCell(t *testing.T, c BatchCell) Result {
	t.Helper()
	rs, err := BatchRun([]BatchCell{c})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// TestBatchRunRejectsConflictingAxes covers the validation path.
func TestBatchRunRejectsConflictingAxes(t *testing.T) {
	_, err := BatchRun([]BatchCell{{Model: AlexNet, Variant: &Variant{}, Processors: 2}})
	if err == nil {
		t.Fatal("cell with both Variant and Processors accepted")
	}
	if _, err := RunObserved(BatchCell{Model: AlexNet, Variant: &Variant{}, Processors: 2}, NewMetrics()); err == nil {
		t.Fatal("RunObserved accepted a cell with both Variant and Processors")
	}
}

// TestBatchRunStatsCountGroups checks the counters the CLIs surface.
func TestBatchRunStatsCountGroups(t *testing.T) {
	ResetBatchStats()
	defer ResetBatchStats()
	cells := []BatchCell{
		{Config: ConfigCPU, Model: AlexNet},
		{Config: ConfigGPU, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: VGG19},
	}
	if _, err := BatchRun(cells); err != nil {
		t.Fatal(err)
	}
	st := BatchRunStats()
	if st.Cells != 4 {
		t.Errorf("counted %d cells, want 4", st.Cells)
	}
	// AlexNet splits by pipeline options (hetero vs baselines), VGG-19
	// adds a third group.
	if st.Groups != 3 || st.Leaders != 3 {
		t.Errorf("groups=%d leaders=%d, want 3/3", st.Groups, st.Leaders)
	}
}
