package core

import (
	"math"
	"strings"
	"testing"

	"heteropim/internal/device"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// uncatalogued is an op type outside nn's profile catalog.
const uncatalogued nn.OpType = "SomethingNew"

// TestFixedCoeffsBitIdentical checks that the executor's per-run
// fixed-section constants (resolved once by initExec) reproduce the
// reference model bit for bit: device.FixedSectionTime for the section
// duration and device.FixedUnitRate for the breakdown's compute rate,
// for every catalogued op type plus an uncatalogued one, across PLL
// multipliers, both placements and several grant sizes.
func TestFixedCoeffsBitIdentical(t *testing.T) {
	g := &nn.Graph{Model: "every-type", BatchSize: 1, InputBytes: 1e5}
	for _, tp := range append(nn.KnownOpTypes(), uncatalogued) {
		g.AddOp(nn.Op{Name: string(tp), Type: tp,
			Muls: 3e9, Adds: 3e9, OtherFlops: 2e7, Bytes: 7e7, UnitGranule: 17})
	}
	for _, scale := range []float64{0, 0.5, 1, 2, 4} {
		for _, uniform := range []bool{false, true} {
			cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
			cfg.Stack.FreqScale = scale
			opts := Options{UniformPlacement: uniform}.withDefaults()
			x, err := newExec(g, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := effStack(cfg.Stack, uniform)
			if x.stack != ref {
				t.Fatalf("scale %g uniform %v: run stack %+v, want %+v", scale, uniform, x.stack, ref)
			}
			for _, op := range g.Ops {
				c := x.coef[op.ID]
				df, db := device.FixedWork(op)
				for _, units := range []int{0, 1, 17, 444} {
					got := c.SectionTime(df, db, units)
					want := device.FixedSectionTime(op, df, db, units, cfg.FixedPIM, ref)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s scale %g uniform %v units %d: section time %v, reference %v",
							op.Type, scale, uniform, units, got, want)
					}
					gotRate := c.UnitRate * float64(units)
					wantRate := device.FixedUnitRate(op, cfg.FixedPIM, ref) * float64(units)
					if math.Float64bits(gotRate) != math.Float64bits(wantRate) {
						t.Errorf("%s scale %g uniform %v units %d: rate %v, reference %v",
							op.Type, scale, uniform, units, gotRate, wantRate)
					}
				}
			}
			x.teardown()
		}
	}
}

// TestRunSectionZeroUnitsErrors checks that a section granted no units
// keeps its +Inf duration and reports the executor's existing error
// instead of scheduling anything.
func TestRunSectionZeroUnitsErrors(t *testing.T) {
	x := newSectionExec(t, 34)
	a := sectionTask(x, 0)
	if d := x.coef[a.op.ID].SectionTime(a.remFlops, a.remBytes, 0); !math.IsInf(d, 1) {
		t.Fatalf("zero-unit section time %v, want +Inf", d)
	}
	x.runSection(a, 0)
	if x.err == nil || !strings.Contains(x.err.Error(), "non-finite section time with 0 units") {
		t.Fatalf("zero-unit section: err %v, want the non-finite section time error", x.err)
	}
	if n := x.eng.Pending(); n != 0 {
		t.Fatalf("zero-unit section scheduled %d events", n)
	}
}

// unknownTypeOps is a small chain whose middle op has an uncatalogued
// type: it must run on the conservative programmable-only fallback.
func unknownTypeOps() []nn.Op {
	return []nn.Op{
		{Name: "conv", Type: nn.OpConv2D, Muls: 2e9, Adds: 2e9, OtherFlops: 1e6, Bytes: 5e7, UnitGranule: 17},
		{Name: "novel", Type: uncatalogued, Muls: 1e9, Adds: 1e9, OtherFlops: 5e8, Bytes: 8e7, UnitGranule: 9, Inputs: []int{0}},
		{Name: "relu", Type: nn.OpRelu, OtherFlops: 1e8, Bytes: 8e8, UnitGranule: 1, Inputs: []int{1}},
	}
}

// TestUnknownOpTypeFallback pins the simulated step time of a graph with
// an uncatalogued op type, built both through Graph.AddOp and by hand
// (ops that never had their profile resolved). Both must run on the
// conservative fallback profile and reproduce the pinned bits.
func TestUnknownOpTypeFallback(t *testing.T) {
	prev := EnableResultCache(false)
	t.Cleanup(func() { EnableResultCache(prev) })

	added := &nn.Graph{Model: "unknown-type", BatchSize: 1, InputBytes: 1e5}
	manual := &nn.Graph{Model: "unknown-type", BatchSize: 1, InputBytes: 1e5}
	for i, op := range unknownTypeOps() {
		added.AddOp(op)
		op := op
		op.ID = i
		manual.Ops = append(manual.Ops, &op)
	}
	fallback := nn.ProfileFor(uncatalogued)
	if fallback.FixedEligible || !fallback.ProgEligible {
		t.Fatalf("fallback profile %+v is not programmable-only", fallback)
	}
	for name, g := range map[string]*nn.Graph{"AddOp": added, "manual": manual} {
		if p := g.Ops[1].Profile(); *p != fallback {
			t.Errorf("%s: uncatalogued op profile %+v, want the fallback %+v", name, *p, fallback)
		}
		for kind, want := range map[hw.ConfigKind]uint64{
			hw.ConfigHeteroPIM: 0x3fe150c9fd774e95,
			hw.ConfigCPU:       0x3fccb9b6d4bf2a1f,
		} {
			r, err := runPaper(kind, g, 1)
			if err != nil {
				t.Fatalf("%s on %v: %v", name, kind, err)
			}
			if got := math.Float64bits(r.StepTime); got != want {
				t.Errorf("%s on %v: step time %#x (%v), want %#x", name, kind, got, r.StepTime, want)
			}
		}
	}
}

// seedAllocsPerRun is the allocation count of one warm, uncached AlexNet
// Hetero PIM run before the per-run coefficient tables existed: they and
// the rest of the run's scratch must come from pooled state.
const seedAllocsPerRun = 68

// TestWarmRunAllocs checks that a warm run allocates no more objects
// than seedAllocsPerRun.
func TestWarmRunAllocs(t *testing.T) {
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	prev := EnableResultCache(false)
	t.Cleanup(func() { EnableResultCache(prev) })
	opts := HeteroOptions()
	run := func() {
		if _, err := RunPIM(g, cfg, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(50, run)
	t.Logf("warm AlexNet Hetero PIM run: %.1f allocs (seed %d)", allocs, seedAllocsPerRun)
	if allocs > seedAllocsPerRun {
		t.Fatalf("warm run allocates %.1f objects, more than the seed's %d", allocs, seedAllocsPerRun)
	}
}
