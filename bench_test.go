package heteropim

// The benchmark harness: one testing.B benchmark per paper table/figure
// (DESIGN.md §5), plus the ablation benches of DESIGN.md §6. Each
// benchmark regenerates its artifact end to end and reports the headline
// quantity as a custom metric, so `go test -bench=. -benchmem` doubles
// as the full reproduction run.

import (
	"testing"
	"time"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/workload"
)

// benchLive disables the simulation result cache for the benchmark so
// every iteration measures a live simulation, restoring it afterwards.
func benchLive(b *testing.B) {
	b.Helper()
	prev := SetSimulationCache(false)
	b.Cleanup(func() { SetSimulationCache(prev) })
}

// benchExperiment runs one experiment per iteration.
func benchExperiment(b *testing.B, run func() (*Table, error)) {
	b.Helper()
	benchLive(b)
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkTableI regenerates Table I (operation profiling).
func BenchmarkTableI(b *testing.B) { benchExperiment(b, TableI) }

// BenchmarkFig2Classes regenerates the Fig. 2 taxonomy.
func BenchmarkFig2Classes(b *testing.B) { benchExperiment(b, Fig2Classes) }

// BenchmarkFig8ExecTime regenerates the 5x5 execution-time matrix.
func BenchmarkFig8ExecTime(b *testing.B) { benchExperiment(b, Fig8ExecTime) }

// BenchmarkFig9Energy regenerates the normalized-energy matrix.
func BenchmarkFig9Energy(b *testing.B) { benchExperiment(b, Fig9Energy) }

// BenchmarkFig10Neurocube regenerates the Neurocube comparison.
func BenchmarkFig10Neurocube(b *testing.B) { benchExperiment(b, Fig10Neurocube) }

// BenchmarkFig11FreqScaling regenerates the frequency-scaling study.
func BenchmarkFig11FreqScaling(b *testing.B) { benchExperiment(b, Fig11FreqScaling) }

// BenchmarkFig12ProgScaling regenerates the 1P/4P/16P study.
func BenchmarkFig12ProgScaling(b *testing.B) { benchExperiment(b, Fig12ProgScaling) }

// BenchmarkFig13SoftwareImpact regenerates the RC/OP time study.
func BenchmarkFig13SoftwareImpact(b *testing.B) { benchExperiment(b, Fig13SoftwareImpact) }

// BenchmarkFig14SoftwareEnergy regenerates the RC/OP energy study.
func BenchmarkFig14SoftwareEnergy(b *testing.B) { benchExperiment(b, Fig14SoftwareEnergy) }

// BenchmarkFig15Utilization regenerates the utilization study.
func BenchmarkFig15Utilization(b *testing.B) { benchExperiment(b, Fig15Utilization) }

// BenchmarkFig16Mixed regenerates the mixed-workload study.
func BenchmarkFig16Mixed(b *testing.B) { benchExperiment(b, Fig16Mixed) }

// BenchmarkFig17EDP regenerates the EDP/power study.
func BenchmarkFig17EDP(b *testing.B) { benchExperiment(b, Fig17EDP) }

// BenchmarkParallelSweep measures the parallel experiment runner on the
// 5x5 execution-time matrix (Fig. 8). Run with -cpu 1,4 to compare
// worker widths: the pool sizes itself from GOMAXPROCS, which -cpu
// sets. speedup-x is wall clock relative to a one-worker baseline
// measured in the same process; every timed run starts with cold
// profile and result caches so the comparison isolates the worker pool.
func BenchmarkParallelSweep(b *testing.B) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	core.ResetProfileCache()
	ResetSimulationCache()
	start := time.Now()
	if _, err := Fig8ExecTime(); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(start).Seconds()

	SetParallelism(0) // follow GOMAXPROCS so -cpu variants change the width
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ResetProfileCache()
		ResetSimulationCache()
		if _, err := Fig8ExecTime(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	par := b.Elapsed().Seconds() / float64(b.N)
	if par > 0 {
		b.ReportMetric(seq/par, "speedup-x")
	}
	b.ReportMetric(float64(Parallelism()), "workers")
}

// BenchmarkHeteroStep measures the simulator itself: one steady-state
// Hetero PIM run per CNN model, reporting the simulated step time.
func BenchmarkHeteroStep(b *testing.B) {
	benchLive(b)
	for _, m := range Models() {
		m := m
		b.Run(string(m), func(b *testing.B) {
			g, err := nn.Build(nn.ModelName(m))
			if err != nil {
				b.Fatal(err)
			}
			var step float64
			for i := 0; i < b.N; i++ {
				r, err := core.RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1), core.HeteroOptions())
				if err != nil {
					b.Fatal(err)
				}
				step = r.StepTime
			}
			b.ReportMetric(step, "sim-step-s")
		})
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationXPercent sweeps the candidate-selection threshold.
func BenchmarkAblationXPercent(b *testing.B) {
	benchLive(b)
	g := nn.VGG19()
	for _, x := range []float64{50, 70, 90, 99} {
		x := x
		b.Run(bfmt("x", x), func(b *testing.B) {
			opts := core.HeteroOptions()
			opts.XPercent = x
			var step float64
			for i := 0; i < b.N; i++ {
				r, err := core.RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
				if err != nil {
					b.Fatal(err)
				}
				step = r.StepTime
			}
			b.ReportMetric(step, "sim-step-s")
		})
	}
}

// BenchmarkAblationPlacement compares thermal vs uniform placement.
func BenchmarkAblationPlacement(b *testing.B) {
	benchLive(b)
	g := nn.AlexNet()
	for _, uniform := range []bool{false, true} {
		uniform := uniform
		name := "thermal"
		if uniform {
			name = "uniform"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.HeteroOptions()
			opts.UniformPlacement = uniform
			var step float64
			for i := 0; i < b.N; i++ {
				r, err := core.RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
				if err != nil {
					b.Fatal(err)
				}
				step = r.StepTime
			}
			b.ReportMetric(step, "sim-step-s")
		})
	}
}

// BenchmarkAblationPipelineDepth sweeps the OP pipeline depth.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	benchLive(b)
	g := nn.AlexNet()
	for _, depth := range []int{1, 2, 4} {
		depth := depth
		b.Run(bfmt("depth", float64(depth)), func(b *testing.B) {
			opts := core.HeteroOptions()
			opts.PipelineDepth = depth
			var step float64
			for i := 0; i < b.N; i++ {
				r, err := core.RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
				if err != nil {
					b.Fatal(err)
				}
				step = r.StepTime
			}
			b.ReportMetric(step, "sim-step-s")
		})
	}
}

// BenchmarkAblationSyncCost sweeps the host-PIM synchronization cost
// that RC exists to remove.
func BenchmarkAblationSyncCost(b *testing.B) {
	benchLive(b)
	g := nn.AlexNet()
	for _, mult := range []float64{0.5, 1, 2, 4} {
		mult := mult
		b.Run(bfmt("sync", mult), func(b *testing.B) {
			cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
			cfg.FixedPIM.HostSyncOverhead *= mult
			cfg.FixedPIM.SpawnOverhead *= mult
			opts := core.HeteroOptions()
			opts.RC = false // the sweep only matters without RC
			var step float64
			for i := 0; i < b.N; i++ {
				r, err := core.RunPIM(g, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				step = r.StepTime
			}
			b.ReportMetric(step, "sim-step-s")
		})
	}
}

// BenchmarkMixedCoRun runs one co-run case per iteration.
func BenchmarkMixedCoRun(b *testing.B) {
	benchLive(b)
	c := workload.MixedCase{CNN: nn.AlexNetName, NonCNN: nn.LSTMName}
	var imp float64
	for i := 0; i < b.N; i++ {
		r, err := workload.RunMixed(c)
		if err != nil {
			b.Fatal(err)
		}
		imp = r.Improvement
	}
	b.ReportMetric(imp*100, "improvement-%")
}

// bfmt renders sub-benchmark names.
func bfmt(key string, v float64) string {
	if v == float64(int(v)) {
		return key + "=" + itoa(int(v))
	}
	return key + "=" + itoa(int(v*10)) + "e-1"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}
