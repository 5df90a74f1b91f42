package core

import (
	"sync"
	"sync/atomic"

	"heteropim/internal/device"
	"heteropim/internal/nn"
)

// Task-graph templates: the op x step task DAG RunPIM executes depends
// only on the graph's STRUCTURE (op count, Inputs, CrossStep edges) and
// two options (Steps, OP — cross-step edges are only wired without the
// operation pipeline). Every cell of a sweep that re-simulates the same
// model therefore rebuilds an identical DAG. A template captures that
// structure once — initial dependency counts and a prefix-compressed
// out-edge list — and instantiation clones it into a pooled arena of
// slab-allocated tasks, resetting only the per-run mutable fields.
//
// Determinism contract: an instantiated arena is wired in exactly the
// order buildTasksScratch wires a fresh graph (per source: same-step
// dependents in (step, op, input) iteration order, then cross-step
// dependents), so template and scratch runs are bit-identical — an
// invariant the core tests assert.

// templateKey identifies one task-graph shape. Structure is keyed by
// content (like the profile cache): model/batch/op-count plus a 64-bit
// digest (hash.go) of the dependency lists, so rebuilt and synthetic graphs with
// identical structure share one template.
type templateKey struct {
	model  string
	batch  int
	ops    int
	steps  int
	op     bool
	digest uint64
}

// structDigest hashes the graph fields that determine task-DAG shape.
func structDigest(g *nn.Graph) uint64 {
	h := newFpHash()
	for _, op := range g.Ops {
		h.i(len(op.Inputs))
		for _, in := range op.Inputs {
			h.i(in)
		}
		h.i(len(op.CrossStep))
		for _, cs := range op.CrossStep {
			h.i(cs)
		}
	}
	return h.sum64()
}

// taskTemplate is the immutable per-(structure, steps, OP) blueprint:
// initial dep counts and out-edges as slab indices (index = step*n+opID).
type taskTemplate struct {
	n, steps int
	// deps[i] is task i's initial dependency count.
	deps []int32
	// outIdx[outStart[i]:outStart[i+1]] are the slab indices of task i's
	// dependents, in scratch wiring order.
	outStart []int32
	outIdx   []int32
}

// taskArena is one instantiation: a task slab with outs wired as
// pointers into the same slab, the executor's per-step bookkeeping, and
// its per-run scratch. Arenas are pooled across templates (arenaPool):
// wired is the template the slab's wiring matches, so re-acquiring for
// that template only resets scalar fields, and any other template
// rewires the slabs in place, reallocating only those too small. A
// sweep that interleaves many templates therefore recycles a few
// arenas instead of building one per template and losing it to the
// next GC.
type taskArena struct {
	wired    *taskTemplate
	slab     []task
	edges    []*task // every task's outs alias it
	stepLeft []int
	heldBack [][]*task

	// Executor scratch, overwritten or emptied by every run: the per-op
	// fixed-section constants (exec.coef), the fixed-pool wait queue and
	// the serial-device queues' backing arrays.
	coef                []device.FixedCoeffs
	fixedPending        []*task
	cpuQueue, progQueue []workItem
}

// arenaPool recycles task arenas (*taskArena) across runs and templates.
var arenaPool sync.Pool

// templateEntry is one cache slot; once guards the single build.
type templateEntry struct {
	once sync.Once
	tpl  *taskTemplate
}

var templateCache sync.Map // templateKey -> *templateEntry

// templatesOff disables the template path (tests compare against the
// from-scratch builder; 0 = enabled).
var templatesOff atomic.Bool

// setTaskTemplates toggles the template fast path, returning the
// previous state (true = enabled).
func setTaskTemplates(on bool) bool {
	return !templatesOff.Swap(!on)
}

// ResetTaskTemplates drops every cached template and its pooled arenas
// (tests and servers churning through many synthetic graphs).
func ResetTaskTemplates() {
	templateCache.Range(func(k, _ any) bool {
		templateCache.Delete(k)
		return true
	})
}

// templateFor returns the memoized template for (g's structure, steps,
// op), building it at most once across goroutines.
func templateFor(g *nn.Graph, steps int, op bool) *taskTemplate {
	key := templateKey{
		model:  g.Model,
		batch:  g.BatchSize,
		ops:    len(g.Ops),
		steps:  steps,
		op:     op,
		digest: structDigest(g),
	}
	v, _ := templateCache.LoadOrStore(key, &templateEntry{})
	e := v.(*templateEntry)
	e.once.Do(func() { e.tpl = buildTemplate(g, steps, op) })
	return e.tpl
}

// buildTemplate records dep counts and out-edges in the exact order
// buildTasksScratch would wire them.
func buildTemplate(g *nn.Graph, steps int, op bool) *taskTemplate {
	n := len(g.Ops)
	slabLen := steps * n
	deps := make([]int32, slabLen)
	outs := make([][]int32, slabLen)
	total := 0
	for s := 0; s < steps; s++ {
		for _, o := range g.Ops {
			dst := int32(s*n + o.ID)
			for _, in := range o.Inputs {
				src := s*n + in
				outs[src] = append(outs[src], dst)
				deps[dst]++
				total++
			}
			// Cross-step edges only without OP (see buildTasksScratch).
			if s > 0 && !op {
				for _, cs := range o.CrossStep {
					src := (s-1)*n + cs
					outs[src] = append(outs[src], dst)
					deps[dst]++
					total++
				}
			}
		}
	}
	tpl := &taskTemplate{
		n:        n,
		steps:    steps,
		deps:     deps,
		outStart: make([]int32, slabLen+1),
		outIdx:   make([]int32, 0, total),
	}
	for i, l := range outs {
		tpl.outStart[i] = int32(len(tpl.outIdx))
		tpl.outIdx = append(tpl.outIdx, l...)
	}
	tpl.outStart[slabLen] = int32(len(tpl.outIdx))
	return tpl
}

// resize returns s with length n, reusing its backing array when large
// enough. Reused elements keep their old values; the elements cut off
// are zeroed, so a shrunk slab holds no stale pointers.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	clear(s[n:cap(s)])
	return s[:n]
}

// wire lays tpl's task DAG into the arena's slabs: task i gets its step,
// slab index and outs, the dependents of tpl.outIdx in wiring order.
func (a *taskArena) wire(tpl *taskTemplate) {
	slabLen := tpl.steps * tpl.n
	a.slab = resize(a.slab, slabLen)
	a.edges = resize(a.edges, len(tpl.outIdx))
	for i, d := range tpl.outIdx {
		a.edges[i] = &a.slab[d]
	}
	for i := range a.slab {
		t := &a.slab[i]
		t.step = i / tpl.n
		t.idx = int32(i)
		t.outs = a.edges[tpl.outStart[i]:tpl.outStart[i+1]]
	}
	a.stepLeft = resize(a.stepLeft, tpl.steps)
	a.heldBack = resize(a.heldBack, tpl.steps)
	a.coef = resize(a.coef, tpl.n)
	a.wired = tpl
}

// acquire returns a pooled arena wired for tpl and bound to g. Only the
// per-run mutable fields are reset when the arena already matches tpl.
func (tpl *taskTemplate) acquire(g *nn.Graph) *taskArena {
	a, _ := arenaPool.Get().(*taskArena)
	if a == nil {
		a = new(taskArena)
	}
	if a.wired != tpl {
		a.wire(tpl)
	}
	for i := range a.slab {
		t := &a.slab[i]
		t.op = g.Ops[i%tpl.n]
		t.deps = int(tpl.deps[i])
		t.token = 0
		t.path = 0
		t.remFlops = 0
		t.remBytes = 0
		t.syncPerFlop = 0
	}
	for s := range a.stepLeft {
		a.stepLeft[s] = tpl.n
	}
	return a
}

// releaseArena drops the arena's graph references, empties its scratch
// queues (clearing their task pointers, which a later rewire may leave
// pointing into a replaced slab) and returns it to the pool.
func releaseArena(a *taskArena) {
	if a == nil {
		return
	}
	for i := range a.slab {
		a.slab[i].op = nil
	}
	for s := range a.heldBack {
		a.heldBack[s] = clearAll(a.heldBack[s])
	}
	a.fixedPending = clearAll(a.fixedPending)
	a.cpuQueue = clearAll(a.cpuQueue)
	a.progQueue = clearAll(a.progQueue)
	arenaPool.Put(a)
}

// clearAll zeroes s up to its capacity and returns it emptied.
func clearAll[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}
