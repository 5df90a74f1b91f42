package batch

import (
	"math"

	"heteropim/internal/core"
	"heteropim/internal/device"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// StepTimeLowerBound returns an ADMISSIBLE analytic lower bound on the
// steady-state step time RunPIM(g, cfg, opts) reports: it never exceeds
// the simulated value. That property is what lets the branch-and-bound
// exploration in dse.go discard candidates without simulating them yet
// provably return the exhaustive winner.
//
// The bound is the max of two relaxations, each of which ignores every
// overhead the simulator charges (kernel launches, spawns, host/PIM
// synchronization, residual splitting, chunked grants, queueing):
//
//  1. Capacity (roofline): one step performs Σ TotalFlops of arithmetic
//     and moves Σ Bytes. Even with every resource perfectly busy in
//     parallel, arithmetic retires at most at the sum of the device
//     peaks, and traffic streams at most at the sum of the channel
//     peaks. Devices can only be slower than peak (roofline max,
//     efficiency factors, contention), so work/Σpeak is a floor.
//     The CPU contributes twice its peak (the executor's two host
//     slots each price work against the full socket), and the stack's
//     internal bandwidth twice (programmable and fixed complements are
//     modeled without mutual contention) — over-crediting the hardware
//     keeps the bound admissible.
//
//  2. Pipeline critical path: within one step the op DAG's Inputs
//     edges are always honored, and step s is only admitted once step
//     s-depth has fully completed (depth = 1 without OP). A chain of
//     ceil(Steps/depth) whole-step critical paths is therefore serial,
//     and every op on a chain needs at least its fastest device time:
//     CPU roofline, programmable-PIM roofline at FULL processor count,
//     or — when fixed-eligible — the fixed-function section time on
//     the ENTIRE pool plus the cheaper of the two residual devices.
//     Chunked grants can only be slower (max is superadditive:
//     Σᵢ max(aᵢ,bᵢ) ≥ max(Σaᵢ,Σbᵢ)) and partial grants only slower
//     than the whole pool, so the per-op floor is admissible too.
//
// Anything the bound leaves out only increases simulated time, so
// pruning on `bound > incumbent` can never discard a true winner (see
// the equivalence test across all models in dse_test.go).
func StepTimeLowerBound(g *nn.Graph, cfg hw.SystemConfig, opts core.Options) hw.Seconds {
	if opts.Stacks > 1 {
		return multiStackLowerBound(g, cfg, opts)
	}
	steps := opts.Steps
	if steps <= 0 {
		steps = 4
	}
	depth := 1
	if opts.OP {
		depth = opts.PipelineDepth
		if depth <= 0 {
			depth = 2
		}
	}

	// Relaxation 1: aggregate capacity.
	var flops, bytes float64
	for _, op := range g.Ops {
		flops += op.TotalFlops()
		bytes += op.Bytes
	}
	peak := 2*cfg.CPU.Peak() + cfg.ProgPIM.Peak() +
		float64(cfg.FixedPIM.Units)*cfg.FixedPIM.FlopsPerUnitCycle*cfg.Stack.EffectiveFreq()
	bw := 2*cfg.CPU.MemBandwidth + 2*cfg.Stack.ScaledInternalBandwidth()
	capacity := math.Max(flops/peak, bytes/bw)

	// Relaxation 2: critical path of per-op best-case durations.
	cp := criticalPath(g, cfg)
	pipelined := cp * hw.Seconds(ceilDiv(steps, depth)) / hw.Seconds(steps)

	return hw.Seconds(math.Max(capacity, float64(pipelined)))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// multiStackLowerBound extends the bound to sharded data-parallel runs.
// The merged step time is exactly (slowest shard's compute step) +
// (all-reduce time), and the slowest shard is at least as slow as shard
// 0, whose own single-stack bound is admissible — so bound(shard 0) +
// allReduceTime is an admissible floor. The all-reduce leg uses the
// same per-phase arithmetic as the simulated schedule, in the same
// order, so it never exceeds (in fact equals) the simulated value.
// Every failure mode degrades toward zero, which is always admissible.
func multiStackLowerBound(g *nn.Graph, cfg hw.SystemConfig, opts core.Options) hw.Seconds {
	sched := opts.AllReduce
	if sched == "" {
		sched = core.ReduceRing
	}
	var ar hw.Seconds
	if t, _, err := core.AllReduceStepTime(sched, opts.Stacks, g.ParamBytes, cfg.Link); err == nil {
		ar = t
	}
	shards, err := nn.ShardBatches(g.BatchSize, opts.Stacks)
	if err != nil {
		return ar
	}
	sg, err := nn.BuildWithBatch(nn.ModelName(g.Model), shards[0])
	if err != nil {
		return ar
	}
	so := opts
	so.Stacks, so.AllReduce = 1, ""
	return StepTimeLowerBound(sg, cfg, so) + ar
}

// opFloor is the fastest any modeled path can execute op, excluding
// every overhead.
func opFloor(op *nn.Op, cfg hw.SystemConfig) hw.Seconds {
	best := device.CPUOp(op, cfg.CPU).Time()
	prof := op.Profile()
	if prof.ProgEligible && cfg.ProgPIM.Processors > 0 {
		if t := device.ProgOp(op, cfg.ProgPIM, cfg.ProgPIM.Processors, cfg.Stack).Time(); t < best {
			best = t
		}
	}
	if prof.FixedEligible && cfg.FixedPIM.Units > 0 {
		df, db := device.FixedWork(op)
		sect := device.FixedSectionTime(op, df, db, cfg.FixedPIM.Units, cfg.FixedPIM, cfg.Stack)
		res := device.CPUResidual(op, cfg.CPU).Time()
		if cfg.ProgPIM.Processors > 0 {
			if t := device.ProgResidual(op, cfg.ProgPIM, cfg.Stack).Time(); t < res {
				res = t
			}
		}
		if t := sect + res; t < best {
			best = t
		}
	}
	return best
}

// criticalPath is the longest Inputs-edge chain of opFloor durations.
// Graphs from nn.Build list every op after its inputs, so ID order is
// already topological and needs no sort; any other graph goes through
// TopoOrder. Each op's chain length is a max over the same inputs in
// either order, so both walks give the same bits.
func criticalPath(g *nn.Graph, cfg hw.SystemConfig) hw.Seconds {
	var order []int // nil: walk in ID order
	if !inputsPrecede(g) {
		var err error
		if order, err = g.TopoOrder(); err != nil {
			return 0 // cyclic graph: RunPIM will fail anyway; 0 is admissible
		}
	}
	dist := make([]hw.Seconds, len(g.Ops))
	var cp hw.Seconds
	for k := range g.Ops {
		id := k
		if order != nil {
			id = order[k]
		}
		op := g.Ops[id]
		var in hw.Seconds
		for _, dep := range op.Inputs {
			if dist[dep] > in {
				in = dist[dep]
			}
		}
		dist[id] = in + opFloor(op, cfg)
		if dist[id] > cp {
			cp = dist[id]
		}
	}
	return cp
}

// inputsPrecede reports whether every op's inputs have smaller IDs than
// the op, which makes ID order a topological order.
func inputsPrecede(g *nn.Graph) bool {
	for id, op := range g.Ops {
		for _, in := range op.Inputs {
			if in >= id {
				return false
			}
		}
	}
	return true
}
