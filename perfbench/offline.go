package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"heteropim/internal/scenario"
)

// cnnModels are the paper's five CNNs, in the order the CLIs list them.
var cnnModels = []string{"VGG-19", "AlexNet", "DCGAN", "ResNet-50", "Inception-v3"}

// sweepSpec is the sweep workload's scenario document. The main set is
// the cross product 5 CNNs x 5 configs x 10 freq_scales x 5
// batch_sizes; the small extra sets reach the variant, processor-count
// and multi-stack simulation paths. With shuffle, the seed permutes
// every list and the order of the sets: the same cells in another
// order, so the sorted CSV is seed-independent while scheduling is not.
func sweepSpec(seed int64, shuffle bool) scenario.Spec {
	sets := []scenario.CellSet{
		{
			Models:     append([]string(nil), cnnModels...),
			Configs:    []string{"cpu", "gpu", "progr", "fixed", "hetero"},
			FreqScales: []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 3.5, 4},
			BatchSizes: []int{16, 32, 64, 128, 256},
		},
		{
			Models: append([]string(nil), cnnModels...),
			Variants: []scenario.VariantAxis{
				{RecursiveKernels: false, OperationPipeline: false},
				{RecursiveKernels: true, OperationPipeline: false},
				{RecursiveKernels: false, OperationPipeline: true},
				{RecursiveKernels: true, OperationPipeline: true},
			},
		},
		{Models: append([]string(nil), cnnModels...), Processors: []int{1, 2, 4, 8}},
		{Models: []string{"VGG-19", "ResNet-50"}, Configs: []string{"hetero"},
			Stacks: []int{2, 4}, AllReduce: []string{"ring", "tree"}},
	}
	if shuffle {
		rng := rand.New(rand.NewSource(seed))
		for i := range sets {
			s := &sets[i]
			rng.Shuffle(len(s.Models), func(a, b int) { s.Models[a], s.Models[b] = s.Models[b], s.Models[a] })
			rng.Shuffle(len(s.Configs), func(a, b int) { s.Configs[a], s.Configs[b] = s.Configs[b], s.Configs[a] })
			rng.Shuffle(len(s.FreqScales), func(a, b int) { s.FreqScales[a], s.FreqScales[b] = s.FreqScales[b], s.FreqScales[a] })
			rng.Shuffle(len(s.BatchSizes), func(a, b int) { s.BatchSizes[a], s.BatchSizes[b] = s.BatchSizes[b], s.BatchSizes[a] })
			rng.Shuffle(len(s.Variants), func(a, b int) { s.Variants[a], s.Variants[b] = s.Variants[b], s.Variants[a] })
			rng.Shuffle(len(s.Processors), func(a, b int) { s.Processors[a], s.Processors[b] = s.Processors[b], s.Processors[a] })
		}
		rng.Shuffle(len(sets), func(a, b int) { sets[a], sets[b] = sets[b], sets[a] })
	}
	return scenario.Spec{Scenario: scenario.Version, Name: "perfbench-sweep", Cells: sets}
}

// sweepSetupSpec is the sweep's start-up probe: one Hetero PIM cell per
// CNN, so exec-to-exit covers process start, every model's first graph
// build and template, and nothing more.
func sweepSetupSpec() scenario.Spec {
	return scenario.Spec{Scenario: scenario.Version, Name: "perfbench-setup",
		Cells: []scenario.CellSet{{Models: cnnModels, Configs: []string{"hetero"}}}}
}

// dseSetupSpec is the DSE start-up probe: the 24-candidate paper grid
// for one model.
func dseSetupSpec() scenario.Spec {
	return scenario.Spec{Scenario: scenario.Version, Name: "perfbench-dse-setup",
		Cells: []scenario.CellSet{{Models: []string{"AlexNet"}, Configs: []string{"hetero"}}}}
}

// writeSpec stores a scenario document in the run's scratch directory.
func (b *bench) writeSpec(name string, s scenario.Spec) (string, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(b.work, name)
	return path, os.WriteFile(path, data, 0o644)
}

// readExpected loads one committed expected file.
func (b *bench) readExpected(name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(b.expected, name))
	if err != nil {
		return nil, fmt.Errorf("expected output missing: %w", err)
	}
	return data, nil
}

// sortedCSV returns the header and the sorted rows of a CSV, so two
// runs of the same cells in different orders compare byte for byte.
func sortedCSV(data []byte) string {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 {
		return ""
	}
	rows := append([]string(nil), lines[1:]...)
	sort.Strings(rows)
	return lines[0] + "\n" + strings.Join(rows, "\n") + "\n"
}

// offlineCase is one offline workload: the start-up probe and the
// fixed work, each an exec of a shipped CLI, and the gates on each.
type offlineCase struct {
	cli        string
	setupArgs  []string
	setupCheck func(r procResult) error
	workArgs   func(profile string) []string
	workCheck  func(r procResult) error
	setupRuns  int
	minRuns    int
}

// measureOffline runs the fixed work until the time budget is spent,
// with half of the setupRuns start-up probes before it and half after,
// so the set-up median sees the host as the whole run does. Every exec
// is checked.
func (b *bench) measureOffline(c offlineCase, rep *report) error {
	ctx := context.Background()
	var setup, walls, cpus, rss []float64
	exec := func(args []string, check func(procResult) error) (procResult, bool) {
		rep.attempted++
		r, err := runProc(ctx, b.work, b.cli(c.cli), args...)
		if err != nil {
			rep.failed++
			rep.fail("%v", err)
			return r, false
		}
		if err := check(r); err != nil {
			rep.fail("%s %s: %v", c.cli, strings.Join(args, " "), err)
		}
		return r, true
	}
	probe := func(n int) {
		for i := 0; i < n; i++ {
			if r, ok := exec(c.setupArgs, c.setupCheck); ok {
				setup = append(setup, r.Wall)
			}
		}
	}
	probe(c.setupRuns / 2)
	start := time.Now()
	for n := 0; n < c.minRuns || time.Since(start).Seconds() < b.seconds; n++ {
		r, ok := exec(c.workArgs(""), c.workCheck)
		if !ok {
			break
		}
		walls, cpus, rss = append(walls, r.Wall), append(cpus, r.CPU), append(rss, r.RSSMB)
	}
	probe(c.setupRuns - c.setupRuns/2)
	if len(setup) == 0 || len(walls) == 0 {
		return fmt.Errorf("%s: no successful run to measure (%s)", c.cli, strings.Join(rep.problems, "; "))
	}
	rep.set("setup_s", median(setup))
	rep.set("wall_s", median(walls))
	rep.set("cpu_s", median(cpus))
	rep.set("peak_rss_mb", median(rss))
	rep.printf("%s: %d start-up probes, %d timed runs", c.cli, len(setup), len(walls))
	rep.printf("  setup_s     median %.4f s   min %.4f", median(setup), sorted(setup)[0])
	rep.printf("  wall_s      median %.4f s   min %.4f  max %.4f", median(walls), sorted(walls)[0], sorted(walls)[len(walls)-1])
	rep.printf("  cpu_s       median %.4f s   (cpu/wall %.2f)", median(cpus), median(cpus)/median(walls))
	rep.printf("  peak_rss_mb median %.1f MB", median(rss))
	return nil
}

// traceOffline runs the fixed work once with -cpuprofile and once
// without (the tracing overhead), checks both, and returns the
// untraced run plus the CPU attribution of the profiled one.
func (b *bench) traceOffline(c offlineCase, rep *report) (procResult, error) {
	ctx := context.Background()
	prof := filepath.Join(b.work, c.cli+".prof")
	runs := map[string]procResult{}
	for _, mode := range []string{"traced", "untraced"} {
		args := c.workArgs("")
		if mode == "traced" {
			args = c.workArgs(prof)
		}
		rep.attempted++
		r, err := runProc(ctx, b.work, b.cli(c.cli), args...)
		if err != nil {
			rep.failed++
			return r, err
		}
		if err := c.workCheck(r); err != nil {
			rep.fail("%s (%s): %v", c.cli, mode, err)
		}
		runs[mode] = r
	}
	rep.set("trace.overhead_s", runs["traced"].Wall-runs["untraced"].Wall)
	rep.set("runner.cpu_per_wall", runs["untraced"].CPU/runs["untraced"].Wall)
	if err := attributeProfiles(rep, prof); err != nil {
		return runs["untraced"], err
	}
	rep.printf("%s traced: wall %.3f s (untraced %.3f s), cpu %.3f s", c.cli,
		runs["traced"].Wall, runs["untraced"].Wall, runs["untraced"].CPU)
	return runs["untraced"], nil
}

// ---- sweep ----

var simcacheLine = regexp.MustCompile(`simcache: hits=(\d+) misses=(\d+) batch_cells=(\d+) batch_groups=(\d+) batch_leaders=(\d+)`)

func (b *bench) sweepCase() (offlineCase, error) {
	doc, err := b.writeSpec("sweep.json", sweepSpec(b.seed, true))
	if err != nil {
		return offlineCase{}, err
	}
	setupDoc, err := b.writeSpec("setup.json", sweepSetupSpec())
	if err != nil {
		return offlineCase{}, err
	}
	wantCSV, err := b.readExpected("sweep.csv")
	if err != nil {
		return offlineCase{}, err
	}
	wantStats, err := b.readExpected("sweep.stderr")
	if err != nil {
		return offlineCase{}, err
	}
	wantSetup, err := b.readExpected("sweep_setup.csv")
	if err != nil {
		return offlineCase{}, err
	}
	want := sortedCSV(wantCSV)
	return offlineCase{
		cli:       "pimsweep",
		setupArgs: []string{"-scenario", setupDoc},
		setupCheck: func(r procResult) error {
			if !bytes.Equal(r.Stdout, wantSetup) {
				return fmt.Errorf("start-up probe CSV differs from expected/sweep_setup.csv")
			}
			return nil
		},
		workArgs: func(profile string) []string {
			args := []string{"-scenario", doc}
			if profile != "" {
				args = append(args, "-cpuprofile", profile)
			}
			return args
		},
		workCheck: func(r procResult) error {
			if sortedCSV(r.Stdout) != want {
				return fmt.Errorf("sweep CSV differs from expected/sweep.csv")
			}
			if got := simcacheLine.FindString(string(r.Stderr)); got != strings.TrimSpace(string(wantStats)) {
				return fmt.Errorf("sweep counters %q, want %q", got, strings.TrimSpace(string(wantStats)))
			}
			return nil
		},
		setupRuns: 21,
		minRuns:   3,
	}, nil
}

func runSweep(b *bench) (*report, error) {
	c, err := b.sweepCase()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	return rep, b.measureOffline(c, rep)
}

func traceSweep(b *bench) (*report, error) {
	c, err := b.sweepCase()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	r, err := b.traceOffline(c, rep)
	if err != nil {
		return nil, err
	}
	if m := simcacheLine.FindStringSubmatch(string(r.Stderr)); m != nil {
		hits, _ := strconv.ParseFloat(m[1], 64)
		misses, _ := strconv.ParseFloat(m[2], 64)
		groups, _ := strconv.ParseFloat(m[4], 64)
		leaders, _ := strconv.ParseFloat(m[5], 64)
		rep.set("cache.hits", hits)
		rep.set("cache.misses", misses)
		rep.set("cache.hit_ratio", hits/(hits+misses))
		rep.set("batch.groups", groups)
		rep.set("batch.leaders", leaders)
	}
	return rep, b.ladder(rep)
}

// ---- dse-xl ----

var dseLine = regexp.MustCompile(`(?m)^dse: model=(\S+) candidates=(\d+) simulated=(\d+) pruned=(\d+) surrogate_r2=\S+ replays=(\d+)$`)

// dseWinners parses the (model, winner) pairs of a pimdse winner table.
func dseWinners(table []byte) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(string(table), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && strings.Contains(f[1], "u/") {
			out[f[0]] = f[1]
		}
	}
	return out
}

// dseExpected is expected/dse.json: the winners and calibrated-prune
// counts of the committed DSE report, per model.
type dseExpected struct {
	Winners          map[string]string `json:"winners"`
	CalibratedPruned map[string]int    `json:"calibrated_pruned"`
}

func (b *bench) dseExpected() (dseExpected, error) {
	var e dseExpected
	data, err := b.readExpected("dse.json")
	if err != nil {
		return e, err
	}
	return e, json.Unmarshal(data, &e)
}

func (b *bench) dseCase() (offlineCase, error) {
	setupDoc, err := b.writeSpec("setup.json", dseSetupSpec())
	if err != nil {
		return offlineCase{}, err
	}
	wantTable, err := b.readExpected("dse.txt")
	if err != nil {
		return offlineCase{}, err
	}
	wantLines, err := b.readExpected("dse.stderr")
	if err != nil {
		return offlineCase{}, err
	}
	wantSetup, err := b.readExpected("dse_setup.txt")
	if err != nil {
		return offlineCase{}, err
	}
	exp, err := b.dseExpected()
	if err != nil {
		return offlineCase{}, err
	}
	return offlineCase{
		cli:       "pimdse",
		setupArgs: []string{"-dse", "-grid", "paper", "-scenario", setupDoc},
		setupCheck: func(r procResult) error {
			if !bytes.Equal(r.Stdout, wantSetup) {
				return fmt.Errorf("start-up probe table differs from expected/dse_setup.txt")
			}
			return nil
		},
		workArgs: func(profile string) []string {
			args := []string{"-dse", "-grid", "xl"}
			if profile != "" {
				args = append(args, "-cpuprofile", profile)
			}
			return args
		},
		workCheck: func(r procResult) error {
			if !bytes.Equal(r.Stdout, wantTable) {
				return fmt.Errorf("winner table differs from expected/dse.txt")
			}
			got := strings.Join(dseLine.FindAllString(string(r.Stderr), -1), "\n") + "\n"
			if got != string(wantLines) {
				return fmt.Errorf("dse counters differ from expected/dse.stderr:\n%s", got)
			}
			winners := dseWinners(r.Stdout)
			if len(winners) != len(exp.Winners) {
				return fmt.Errorf("%d winners, want %d", len(winners), len(exp.Winners))
			}
			for m, w := range exp.Winners {
				if winners[m] != w {
					return fmt.Errorf("%s winner %q, want %q", m, winners[m], w)
				}
			}
			return nil
		},
		setupRuns: 31,
		minRuns:   3,
	}, nil
}

func runDSE(b *bench) (*report, error) {
	c, err := b.dseCase()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	return rep, b.measureOffline(c, rep)
}

func traceDSE(b *bench) (*report, error) {
	c, err := b.dseCase()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	r, err := b.traceOffline(c, rep)
	if err != nil {
		return nil, err
	}
	var cands, sims, pruned, replays float64
	for _, m := range dseLine.FindAllStringSubmatch(string(r.Stderr), -1) {
		c, _ := strconv.ParseFloat(m[2], 64)
		s, _ := strconv.ParseFloat(m[3], 64)
		p, _ := strconv.ParseFloat(m[4], 64)
		rp, _ := strconv.ParseFloat(m[5], 64)
		cands, sims, pruned, replays = cands+c, sims+s, pruned+p, replays+rp
	}
	rep.set("dse.simulated", sims)
	rep.set("dse.pruned_frac", pruned/cands)
	rep.set("dse.replays", replays)
	return rep, b.ladder(rep)
}
