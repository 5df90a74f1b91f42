package heteropim

import (
	"context"
	"fmt"

	"heteropim/internal/batch"
	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/sim"
)

// BatchCell describes one simulation cell of the paper's evaluation
// grid (Section VI): a model on a configuration, with the optional axes
// the paper's studies vary. Every front end — Run, RunScaled,
// RunObserved, BatchRun, the figures, scenarios, pimsweep, pimtrain and
// the serving daemon — describes a simulation this way, and all of them
// resolve it through the same step (BatchCell.run).
type BatchCell struct {
	Config Config
	Model  Model
	// BatchSize overrides the model's paper batch size when > 0. For a
	// multi-stack cell this is the GLOBAL batch, split across stacks.
	BatchSize int
	// FreqScale is the PIM/stack PLL multiplier (Section VI-D); 0 means 1.
	FreqScale float64
	// Variant, when non-nil, runs the Hetero PIM platform with the
	// RC/OP techniques individually toggled (Section VI-E; Config is
	// ignored).
	Variant *Variant
	// Processors, when > 0, runs Hetero PIM with that many programmable
	// processors at constant logic-die area (Fig. 12; Config is
	// ignored). It cannot be combined with Variant.
	Processors int
	// Stacks, when > 1, shards the minibatch across that many HMC
	// stacks (data-parallel training with a per-step gradient
	// all-reduce). 0 or 1 is the paper's single-stack system; M > 1
	// needs a PIM configuration (the CPU/GPU baselines have no stacks
	// to shard across) and a global batch of at least M samples.
	// AllReduce picks the gradient schedule: AllReduceRing (or "", the
	// default) or AllReduceTree.
	Stacks    int
	AllReduce string
}

// run resolves the cell to one simulation and executes it: the single
// place a cell becomes a (graph, configuration, options) triple. That
// triple is also the result-cache fingerprint, so every front end that
// describes the same cell shares one cache entry. A non-nil col
// instruments the run (which then executes live, bypassing the cache);
// it never changes the result.
func (c BatchCell) run(col sim.Collector) (Result, error) {
	switch {
	case c.Variant != nil && c.Processors > 0:
		return Result{}, fmt.Errorf("heteropim: cell sets both Variant and Processors")
	case c.Processors < 0:
		return Result{}, fmt.Errorf("heteropim: need at least one processor, got %d", c.Processors)
	}
	sched, err := nn.ParseAllReduceKind(c.AllReduce)
	if err != nil {
		return Result{}, err
	}
	g, err := nn.BuildWithBatch(c.Model, c.BatchSize)
	if err != nil {
		return Result{}, err
	}
	scale := c.FreqScale
	if scale == 0 {
		scale = 1
	}
	kind := c.Config
	if c.Variant != nil || c.Processors > 0 {
		kind = ConfigHeteroPIM
	}
	cfg := hw.PaperConfigScaled(kind, scale)
	if c.Processors > 0 {
		cfg = hw.HeteroConfigWithProcessors(c.Processors, scale)
	}
	opts := core.PlatformOptions(kind)
	if c.Variant != nil {
		opts.RC, opts.OP = c.Variant.RecursiveKernels, c.Variant.OperationPipeline
	}
	opts.Stacks, opts.AllReduce = c.Stacks, sched
	opts.Collector = col
	r, err := core.RunOn(kind, g, cfg, opts)
	if err != nil {
		return Result{}, err
	}
	if c.Variant != nil {
		r.Config.Name = fmt.Sprintf("Hetero PIM(RC=%v,OP=%v)", c.Variant.RecursiveKernels, c.Variant.OperationPipeline)
		if r.Stacks > 1 {
			r.Config.Name += fmt.Sprintf(" x%d", r.Stacks)
		}
	}
	return wrap(r), nil
}

// BatchRun evaluates the cells on the shared worker pool and returns
// their results in input order — bit-identical to running each cell
// alone (Run, RunScaled) sequentially. Cells sharing a task-graph
// template (same model, batch size and pipeline options) are grouped:
// one leader per group runs first and warms the template and profile
// caches, then the rest fan out (internal/batch). Group and leader
// counts are reported through batch.ReadStats alongside the
// simulation-cache counters.
func BatchRun(cells []BatchCell) ([]Result, error) {
	bc := make([]batch.Cell[Result], len(cells))
	for i, c := range cells {
		c := c
		op := c.Config == ConfigHeteroPIM || c.Variant != nil || c.Processors > 0
		if c.Variant != nil {
			op = c.Variant.OperationPipeline
		}
		bc[i] = batch.Cell[Result]{
			Group: batch.GroupKey(string(c.Model), c.BatchSize, 4, op, 2),
			Run:   func(context.Context) (Result, error) { return c.run(nil) },
		}
	}
	return batch.Eval(context.Background(), bc)
}

// BatchStats reports the grouped-evaluation and DSE-pruning counters
// accumulated since the last ResetBatchStats (cells evaluated, template
// groups, leader warm-ups; DSE candidates, pruned, simulated).
type BatchStats = batch.Stats

// BatchRunStats reads the process's batch-evaluation counters.
func BatchRunStats() BatchStats { return batch.ReadStats() }

// ResetBatchStats zeroes the batch-evaluation counters.
func ResetBatchStats() { batch.ResetStats() }
