package device

import (
	"math"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

func convOp() *nn.Op {
	// A VGG-ish conv backprop-filter instance: 100 GFLOP, 4 GB traffic.
	return &nn.Op{
		Name: "conv/Conv2DBackpropFilter", Type: nn.OpConv2DBackpropFilter,
		Muls: 50e9, Adds: 50e9, OtherFlops: 1e9, Bytes: 4e9, UnitGranule: 17,
	}
}

func reluOp() *nn.Op {
	return &nn.Op{Name: "relu", Type: nn.OpRelu, OtherFlops: 1e8, Bytes: 8e8, UnitGranule: 1}
}

func TestWorkTimeIsRoofline(t *testing.T) {
	w := Work{Compute: 2, Memory: 3}
	if w.Time() != 3 || !w.MemBound() {
		t.Fatal("roofline max broken")
	}
	w = Work{Compute: 5, Memory: 1}
	if w.Time() != 5 || w.MemBound() {
		t.Fatal("compute-bound case broken")
	}
}

func TestCPUOpMatchesHandRoofline(t *testing.T) {
	op := convOp()
	cpu := hw.PaperCPU()
	p := nn.ProfileFor(op.Type)
	w := CPUOp(op, cpu)
	wantC := op.TotalFlops() / (cpu.Peak() * p.CPUComputeEff)
	wantM := op.Bytes / (cpu.MemBandwidth * p.CPUBwEff)
	if math.Abs(w.Compute-wantC) > 1e-12*wantC || math.Abs(w.Memory-wantM) > 1e-12*wantM {
		t.Fatalf("CPU work = %+v, want (%g,%g)", w, wantC, wantM)
	}
}

func TestGPUFasterThanCPUOnConv(t *testing.T) {
	op := convOp()
	cpu := CPUOp(op, hw.PaperCPU()).Time()
	gpu := GPUOp(op, hw.PaperGPU(), 0.63).Time()
	if gpu >= cpu {
		t.Fatalf("GPU (%g) should beat CPU (%g) on conv backprop", gpu, cpu)
	}
}

func TestGPUUtilizationScalesCompute(t *testing.T) {
	op := convOp()
	lo := GPUOp(op, hw.PaperGPU(), 0.30)
	hi := GPUOp(op, hw.PaperGPU(), 0.60)
	if r := lo.Compute / hi.Compute; math.Abs(r-2) > 1e-9 {
		t.Fatalf("utilization scaling ratio = %g, want 2", r)
	}
	// Zero utilization falls back to 1 rather than dividing by zero.
	z := GPUOp(op, hw.PaperGPU(), 0)
	if math.IsInf(z.Compute, 1) || z.Compute <= 0 {
		t.Fatal("zero utilization must not produce Inf/0")
	}
}

func TestGPUStepTransfer(t *testing.T) {
	g := nn.VGG19()
	tt := GPUStepTransferTime(g, hw.PaperGPU())
	if tt <= 0 {
		t.Fatal("transfer time must be positive")
	}
	wantBytes := g.InputBytes + g.GPUUnhiddenTransferFrac*g.ActivationBytes
	if b := GPUStepTransferBytes(g); math.Abs(b-wantBytes) > 1 {
		t.Fatalf("transfer bytes = %g, want %g", b, wantBytes)
	}
}

func TestFixedUnitRate(t *testing.T) {
	op := convOp()
	spec := hw.PaperFixedPIM(444)
	r1 := FixedUnitRate(op, spec, hw.PaperStack(1))
	r4 := FixedUnitRate(op, spec, hw.PaperStack(4))
	if r1 <= 0 {
		t.Fatal("conv must be fixed-eligible")
	}
	if math.Abs(r4/r1-4) > 1e-9 {
		t.Fatalf("frequency scaling ratio = %g, want 4", r4/r1)
	}
	if FixedUnitRate(reluOp(), spec, hw.PaperStack(1)) != 0 {
		t.Fatal("Relu must not be fixed-eligible")
	}
}

func TestFixedSectionTimeScalesWithUnits(t *testing.T) {
	op := convOp()
	spec := hw.PaperFixedPIM(444)
	stack := hw.PaperStack(1)
	flops, bytes := FixedWork(op)
	if flops <= 0 || bytes <= 0 || flops > op.TotalFlops() {
		t.Fatalf("fixed work = (%g,%g)", flops, bytes)
	}
	t100 := FixedSectionTime(op, flops, 0, 100, spec, stack)
	t400 := FixedSectionTime(op, flops, 0, 400, spec, stack)
	if r := t100 / t400; math.Abs(r-4) > 1e-9 {
		t.Fatalf("unit scaling ratio = %g, want 4", r)
	}
	if !math.IsInf(FixedSectionTime(op, flops, bytes, 0, spec, stack), 1) {
		t.Fatal("zero units must be infinitely slow")
	}
	// With enough units the section becomes bandwidth bound.
	tBig := FixedSectionTime(op, flops, bytes, 100000, spec, stack)
	p := nn.ProfileFor(op.Type)
	wantMem := bytes / (stack.ScaledInternalBandwidth() * p.FixedBwEff)
	if math.Abs(tBig-wantMem) > 1e-9*wantMem {
		t.Fatalf("bandwidth floor = %g, want %g", tBig, wantMem)
	}
}

func TestProgOpParallelismCaps(t *testing.T) {
	op := convOp() // conv family: prog parallelism 16
	spec := hw.PaperProgPIM(64)
	stack := hw.PaperStack(1)
	w16 := ProgOp(op, spec, 16, stack)
	w64 := ProgOp(op, spec, 64, stack)
	if w16.Compute != w64.Compute {
		t.Fatal("beyond the parallelism cap extra processors must not help")
	}
	w1 := ProgOp(op, spec, 1, stack)
	if r := w1.Compute / w16.Compute; math.Abs(r-16) > 1e-9 {
		t.Fatalf("prog scaling = %g, want 16", r)
	}
	wz := ProgOp(op, spec, 0, stack)
	if math.IsInf(wz.Compute, 1) {
		t.Fatal("zero processors must clamp to 1, not Inf")
	}
}

func TestProgResidualSmallerThanWholeOp(t *testing.T) {
	op := convOp()
	spec := hw.PaperProgPIM(1)
	stack := hw.PaperStack(1)
	whole := ProgOp(op, spec, 1, stack).Time()
	resid := ProgResidual(op, spec, stack).Time()
	if resid >= whole {
		t.Fatalf("residual (%g) must be cheaper than the whole op (%g)", resid, whole)
	}
}

func TestResidualPlusDecomposableCoversAllFlops(t *testing.T) {
	op := convOp()
	if d := math.Abs(op.DecomposableFlops() + op.ResidualFlops() - op.TotalFlops()); d > 1e-3 {
		t.Fatalf("flop split leaks %g", d)
	}
}

func TestNeurocubeSlowerThanFixedPoolOnConv(t *testing.T) {
	op := convOp()
	ncube := DefaultNeurocube()
	w := NeurocubeOp(op, ncube)
	flops, bytes := FixedWork(op)
	fixed := FixedSectionTime(op, flops, bytes, 436, hw.PaperFixedPIM(436), hw.PaperStack(1))
	if w.Time() <= fixed {
		t.Fatalf("Neurocube (%g) should lose to the full fixed pool (%g) on conv", w.Time(), fixed)
	}
}

func TestNeurocubeControlHeavyPenalty(t *testing.T) {
	ncube := DefaultNeurocube()
	relu := reluOp()
	conv := convOp()
	// Normalize by flops: per-flop the control-heavy op must be slower.
	perFlopRelu := NeurocubeOp(relu, ncube).Compute / relu.TotalFlops()
	perFlopConv := NeurocubeOp(conv, ncube).Compute / conv.TotalFlops()
	if perFlopRelu <= perFlopConv {
		t.Fatal("control-heavy ops must be slower per flop on Neurocube")
	}
}

func TestSafeDiv(t *testing.T) {
	if safeDiv(0, 5) != 0 || safeDiv(-1, 5) != 0 {
		t.Fatal("non-positive numerators must give 0")
	}
	if !math.IsInf(safeDiv(5, 0), 1) {
		t.Fatal("zero denominator must give +Inf")
	}
	if safeDiv(10, 2) != 5 {
		t.Fatal("plain division broken")
	}
}

// TestWorkTimeMatchesMathMax pins Work.Time to math.Max bit for bit,
// the IEEE special cases (signed zeros, infinities, NaN) included.
func TestWorkTimeMatchesMathMax(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e-9, 2, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, a := range vals {
		for _, b := range vals {
			got, want := (Work{Compute: a, Memory: b}).Time(), math.Max(a, b)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("Work{%v, %v}.Time() = %v, math.Max = %v", a, b, got, want)
			}
		}
	}
}
