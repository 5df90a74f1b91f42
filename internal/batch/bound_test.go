package batch

import (
	"math"
	"testing"

	"heteropim/internal/nn"
)

// handGraph builds a graph whose op i copies the descriptor of
// src.Ops[from[i]] and takes inputs[i] as its inputs.
func handGraph(src *nn.Graph, from []int, inputs [][]int) *nn.Graph {
	g := &nn.Graph{Model: "hand", BatchSize: src.BatchSize}
	for i, f := range from {
		op := *src.Ops[f]
		op.Inputs = inputs[i]
		op.CrossStep = nil
		g.AddOp(op)
	}
	return g
}

// TestCriticalPathIDOrderMatchesTopoOrder builds a DAG whose IDs are not
// topological (so criticalPath sorts it), relabels it in topological
// order (so criticalPath walks IDs), and requires the same bits.
func TestCriticalPathIDOrderMatchesTopoOrder(t *testing.T) {
	src, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	from := []int{0, 1, 2, 3, 4, 5}
	inputs := [][]int{{3}, {0, 4}, {}, {2}, {2}, {1, 3}}
	shuffled := handGraph(src, from, inputs)
	order, err := shuffled.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	relabel := make([]int, len(order))
	for newID, oldID := range order {
		relabel[oldID] = newID
	}
	sorted := make([]int, len(order))
	sortedIn := make([][]int, len(order))
	for newID, oldID := range order {
		sorted[newID] = from[oldID]
		for _, in := range inputs[oldID] {
			sortedIn[newID] = append(sortedIn[newID], relabel[in])
		}
	}
	ordered := handGraph(src, sorted, sortedIn)
	if inputsPrecede(shuffled) || !inputsPrecede(ordered) {
		t.Fatal("test graphs do not exercise both walks")
	}
	cfg := testCandidates()[0].Config()
	topo, byID := criticalPath(shuffled, cfg), criticalPath(ordered, cfg)
	if topo <= 0 {
		t.Fatalf("critical path %g, want > 0", topo)
	}
	if math.Float64bits(float64(topo)) != math.Float64bits(float64(byID)) {
		t.Fatalf("ID-order critical path %v differs from the TopoOrder one %v", byID, topo)
	}
}

// TestCriticalPathCycleIsZero: a cyclic graph still bounds to 0.
func TestCriticalPathCycleIsZero(t *testing.T) {
	src, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	g := handGraph(src, []int{0, 1, 2}, [][]int{{}, {2}, {1}})
	if cp := criticalPath(g, testCandidates()[0].Config()); cp != 0 {
		t.Fatalf("cyclic graph has critical path %g, want 0", cp)
	}
}
