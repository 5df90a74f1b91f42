// Command perfbench is the repository's benchmark. It drives the
// shipped entry points the way users do — pimsweep -scenario, pimdse
// -dse -grid xl and a pimserve router fleet — from fresh processes,
// checks their outputs byte for byte, and prints one JSON result line.
// With -trace 1 it instead profiles the same workload and times calls
// into each layer's public functions (the layer ladder).
//
// Run it from the repository root through run.sh, which builds the
// CLIs and this program first:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// bench is one invocation's settings.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the built CLIs
	work     string // per-run scratch directory (removed at exit)
	expected string // directory of committed expected outputs
}

// cli is the path of a built command.
func (b *bench) cli(name string) string { return filepath.Join(b.bin, name) }

// report is what one workload run produced.
type report struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   map[string]float64
	lines     []string // human-readable report, printed before the JSON line
}

func newReport() *report { return &report{correct: true, metrics: map[string]float64{}} }

// fail records a failed correctness gate; the run reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// printf adds one line to the human-readable report.
func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// set records a metric value.
func (r *report) set(name string, v float64) { r.metrics[name] = v }

// metricSpec names one reported metric. zeroOK marks workload counters
// that are legitimately 0 (or not exposed) on workloads that do not
// reach their layer; every other metric must be measured on every run.
type metricSpec struct {
	name   string
	unit   string
	zeroOK bool
}

// endToEnd are the -trace 0 metrics, reported by every workload.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s"},
	{name: "wall_s", unit: "s"},
	{name: "cpu_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

var workloads = map[string]struct {
	run, trace func(*bench) (*report, error)
}{
	"sweep":  {runSweep, traceSweep},
	"dse-xl": {runDSE, traceDSE},
	"serve":  {runServe, traceServe},
}

func main() {
	var b bench
	flag.StringVar(&b.workload, "workload", "", "workload: sweep, dse-xl or serve")
	flag.Int64Var(&b.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.Float64Var(&b.seconds, "seconds", 25, "measurement budget per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run: profiles plus the layer ladder (per-layer metrics)")
	flag.StringVar(&b.bin, "bin", ".bench_build/bin", "directory holding the built pimsweep, pimdse and pimserve")
	flag.StringVar(&b.work, "work", ".bench_build/run", "scratch directory for the run's files")
	writeExpected := flag.Bool("write-expected", false, "regenerate the expected outputs from the current build and exit")
	flag.Parse()
	b.trace = *traceFlag == 1
	b.expected = filepath.Join("perfbench", "expected")
	if err := b.main(*writeExpected); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// main runs one workload (or regenerates the expected files) in a fresh
// scratch directory and removes it afterwards.
func (b *bench) main(writeExpected bool) error {
	if err := b.prepare(); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	if writeExpected {
		return writeExpectedFiles(b)
	}
	w, ok := workloads[b.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want sweep, dse-xl or serve)", b.workload)
	}
	fmt.Printf("envelope: %s\n", hostEnvelope(b))
	run, specs := w.run, endToEnd
	if b.trace {
		run, specs = w.trace, perLayer
	}
	steal0, total0 := cpuTicks()
	rep, err := run(b)
	if err != nil {
		return err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rep.printf("host: steal %.1f%% of CPU time during the run (/proc/stat)", 100*(steal1-steal0)/(total1-total0))
	}
	return emit(rep, specs)
}

// cpuTicks reads the machine's stolen and total CPU ticks from the
// first line of /proc/stat, so a report shows how much the hypervisor
// gave to other guests while it measured (0, 0 when unknown).
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, x := range f[1:9] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// prepare checks that the built CLIs and expected files exist and makes
// a fresh scratch directory for this run.
func (b *bench) prepare() error {
	for _, name := range []string{"pimsweep", "pimdse", "pimserve"} {
		if _, err := os.Stat(b.cli(name)); err != nil {
			return fmt.Errorf("built %s not found (run through perfbench/run.sh): %v", name, err)
		}
	}
	abs, err := filepath.Abs(b.bin)
	if err != nil {
		return err
	}
	b.bin = abs
	b.work = filepath.Join(b.work, fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.RemoveAll(b.work); err != nil {
		return err
	}
	return os.MkdirAll(b.work, 0o755)
}

// emit prints the human report and then the result JSON line holding
// exactly the metrics in specs.
func emit(rep *report, specs []metricSpec) error {
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok && !s.zeroOK {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		fmt.Printf("%-28s %14.6g %s\n", s.name, v, s.unit)
		out.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostEnvelope describes where and on what the numbers were measured.
func hostEnvelope(b *bench) string {
	env := struct {
		Go         string  `json:"go"`
		GOOS       string  `json:"goos"`
		GOARCH     string  `json:"goarch"`
		NumCPU     int     `json:"num_cpu"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		CPUModel   string  `json:"cpu_model"`
		Commit     string  `json:"commit"`
		Workload   string  `json:"workload"`
		Seed       int64   `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Trace      bool    `json:"trace"`
		Time       string  `json:"time"`
	}{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Commit: commit(), Workload: b.workload, Seed: b.seed,
		Seconds: b.seconds, Trace: b.trace, Time: time.Now().UTC().Format(time.RFC3339),
	}
	data, _ := json.Marshal(env)
	return string(data)
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the code under test: the git commit when the
// checkout is a repository, otherwise a hash of its Go sources.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
