package core

import (
	"fmt"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// HeteroOptions returns the full paper runtime: profiling-based
// selection, recursive kernels, and the operation pipeline.
func HeteroOptions() Options {
	return Options{RC: true, OP: true, UseSelection: true}
}

// PlatformOptions is the executor-options table of the five evaluated
// platforms (Section VI): the runtime each PIM platform ships with. The
// CPU and GPU baselines have no executor options, so they (and unknown
// kinds, which RunOn rejects) get the zero value. Callers layer their
// overrides (RC/OP toggles, stacks, a collector) on top and hand the
// result to RunOn.
func PlatformOptions(kind hw.ConfigKind) Options {
	switch kind {
	case hw.ConfigProgrPIM:
		// No runtime scheduling: every op runs on the programmable
		// cores, as wide as its parallelism allows, no pipeline.
		return Options{NoCPUFallback: true, WideProgOps: true}
	case hw.ConfigHeteroPIM:
		return HeteroOptions()
	default:
		// Fixed PIM: offloadable ops on the fixed-function pool,
		// everything else (and all residual phases) on the CPU; no
		// runtime scheduling.
		return Options{}
	}
}

// RunOn simulates steady-state training of g on one of the five
// evaluated platform kinds under an explicit (possibly customized)
// configuration and options — the one dispatcher every platform-kind
// entry point goes through. The PIM kinds run RunPIM with opts as
// given; the serial CPU and GPU baselines read only opts.Collector
// (their instrumentation) and reject opts.Stacks > 1, since they have
// no stacks to shard across. Attaching a collector never changes the
// result.
func RunOn(kind hw.ConfigKind, g *nn.Graph, cfg hw.SystemConfig, opts Options) (Result, error) {
	switch kind {
	case hw.ConfigCPU, hw.ConfigGPU:
		if opts.Stacks > 1 {
			return Result{}, fmt.Errorf("core: multi-stack training needs a PIM platform, got %v", kind)
		}
		if kind == hw.ConfigCPU {
			return runSerial("cpu", g, cfg, opts.Collector, runCPUSerial), nil
		}
		return runSerial("gpu", g, cfg, opts.Collector, runGPUSerial), nil
	case hw.ConfigProgrPIM, hw.ConfigFixedPIM, hw.ConfigHeteroPIM:
		return RunPIM(g, cfg, opts)
	}
	return Result{}, fmt.Errorf("core: unknown configuration %v", kind)
}
