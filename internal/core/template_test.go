package core

import (
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// TestTemplateRunsMatchScratch checks the task-graph template contract:
// a run whose tasks were instantiated from the cached per-(model,
// pipeline-depth) template is bit-identical to one whose tasks were
// built from scratch, across every model and every PIM platform (the
// three executors that go through buildTasks).
func TestTemplateRunsMatchScratch(t *testing.T) {
	prevCache := EnableResultCache(false)
	t.Cleanup(func() { EnableResultCache(prevCache) })
	ResetTaskTemplates()
	for _, m := range nn.CNNModelNames() {
		g, err := nn.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []hw.ConfigKind{hw.ConfigProgrPIM, hw.ConfigFixedPIM, hw.ConfigHeteroPIM} {
			templated, err := runPaper(kind, g, 1)
			if err != nil {
				t.Fatalf("%s on %v (templates): %v", m, kind, err)
			}
			prev := setTaskTemplates(false)
			scratch, err := runPaper(kind, g, 1)
			setTaskTemplates(prev)
			if err != nil {
				t.Fatalf("%s on %v (scratch): %v", m, kind, err)
			}
			if templated != scratch {
				t.Errorf("%s on %v: template-instantiated run differs from scratch build", m, kind)
			}
		}
	}
}

// TestTemplateArenaReuse checks that repeated runs of the same model
// reuse one template (and produce identical results while doing so) —
// the pooling path, where an arena is released and re-acquired.
func TestTemplateArenaReuse(t *testing.T) {
	prevCache := EnableResultCache(false)
	t.Cleanup(func() { EnableResultCache(prevCache) })
	ResetTaskTemplates()
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	first, err := runPaper(hw.ConfigHeteroPIM, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := runPaper(hw.ConfigHeteroPIM, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Errorf("run %d on a reused arena differs from the first run", i)
		}
	}
}
