package heteropim

// Determinism regression tests for the parallel experiment runner:
// every figure must produce bit-identical tables whether its cells run
// sequentially or fanned out across workers.

import (
	"reflect"
	"testing"

	"heteropim/internal/core"
)

// runAtParallelism regenerates an experiment table at a fixed worker
// count with a cold profile cache.
func runAtParallelism(t *testing.T, run func() (*Table, error), workers int) *Table {
	t.Helper()
	prev := SetParallelism(workers)
	defer SetParallelism(prev)
	core.ResetProfileCache()
	tab, err := run()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return tab
}

// TestParallelMatchesSequential asserts sequential and parallel runs of
// representative figures (the 5x5 matrix and the RC/OP variant study,
// which run their cells through BatchRun, and the Neurocube comparison,
// which mixes a non-cell run in through runJobs) produce deeply equal
// tables.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		run  func() (*Table, error)
	}{
		{"Fig8ExecTime", Fig8ExecTime},
		{"Fig13SoftwareImpact", Fig13SoftwareImpact},
		{"Fig10Neurocube", Fig10Neurocube},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seq := runAtParallelism(t, c.run, 1)
			par := runAtParallelism(t, c.run, 4)
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("parallel table differs from sequential:\nsequential:\n%s\nparallel:\n%s",
					seq.String(), par.String())
			}
		})
	}
}

// TestAllExperimentsParallelSafe smoke-runs every registered experiment
// (paper + extensions) at parallelism 4; combined with the race
// detector this guards against shared-state regressions in any figure.
func TestAllExperimentsParallelSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: regenerates every artifact")
	}
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	all := append(Experiments(), ExtensionExperiments()...)
	for _, e := range all {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
		})
	}
}

// TestSetParallelismRoundTrip checks the public knob restores cleanly.
func TestSetParallelismRoundTrip(t *testing.T) {
	orig := SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	if prev := SetParallelism(orig); prev != 3 {
		t.Fatalf("SetParallelism returned %d, want 3", prev)
	}
}
