package heteropim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"heteropim/internal/metrics"
)

// TestRunInstrumentedTimelineSchema is the acceptance test for the
// `pimprof -timeline VGG-19 -config hetero` path: the observed
// hetero VGG-19 run must emit Chrome trace-event JSON that round-trips
// through the schema (valid JSON, X/C/M phases only, named lanes,
// non-negative timestamps) — and the Result must be bit-identical to
// the uninstrumented run.
func TestRunInstrumentedTimelineSchema(t *testing.T) {
	plain, err := Run(ConfigHeteroPIM, VGG19)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	res, err := RunObserved(BatchCell{Config: ConfigHeteroPIM, Model: VGG19}, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatalf("instrumented result differs from plain:\n%+v\nvs\n%+v", plain, res)
	}

	var buf bytes.Buffer
	if err := m.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	var ct metrics.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if err := ct.Validate(); err != nil {
		t.Fatalf("timeline fails schema validation: %v", err)
	}
	var spans, counters int
	for _, ev := range ct.TraceEvents {
		switch ev.Phase {
		case "X":
			spans++
		case "C":
			counters++
		}
	}
	if spans == 0 || counters == 0 {
		t.Fatalf("timeline too thin: %d spans, %d counter events", spans, counters)
	}
}

// TestMetricsJSONAndAdvice checks the machine-readable dump and the
// advisor reading of an instrumented run.
func TestMetricsJSONAndAdvice(t *testing.T) {
	m := NewMetrics()
	if _, err := RunObserved(BatchCell{Config: ConfigHeteroPIM, Model: AlexNet}, m); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Makespan float64 `json:"makespan"`
		Tracks   []struct {
			Track string `json:"track"`
		} `json:"tracks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v", err)
	}
	if snap.Makespan <= 0 || len(snap.Tracks) == 0 {
		t.Fatalf("metrics dump incomplete: %+v", snap)
	}
	advice := m.Advice()
	for _, want := range []string{"bottleneck", "underutilized"} {
		if !strings.Contains(advice, want) {
			t.Fatalf("advice missing %q:\n%s", want, advice)
		}
	}
}

// TestParseModel pins the case-insensitive model lookup and its error
// text (the CLIs and the serving daemon both lean on it).
func TestParseModel(t *testing.T) {
	for name, want := range map[string]Model{
		"VGG-19": VGG19, "vgg-19": VGG19, "alexnet": AlexNet,
		"ResNet-50": ResNet50, "WORD2VEC": Word2Vec,
	} {
		got, err := ParseModel(name)
		if err != nil || got != want {
			t.Fatalf("ParseModel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseModel("GPT-2")
	if err == nil || !strings.Contains(err.Error(), "VGG-19") {
		t.Fatalf("unknown model error must list valid names, got: %v", err)
	}
	names := ModelNames()
	if len(names) != 7 || !sort.StringsAreSorted(names) {
		t.Fatalf("ModelNames() = %v, want 7 sorted names", names)
	}
}

// TestRunObserved checks the caller-supplied-Metrics path: the Result
// matches the plain run bit-for-bit and the collector saw events.
func TestRunObserved(t *testing.T) {
	plain, err := Run(ConfigHeteroPIM, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	if m.CounterValue("sim.events") != 0 {
		t.Fatal("fresh Metrics must start empty")
	}
	res, err := RunObserved(BatchCell{Config: ConfigHeteroPIM, Model: AlexNet}, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatalf("observed result differs from plain:\n%+v\nvs\n%+v", plain, res)
	}
	if m.CounterValue("sim.events") == 0 {
		t.Fatal("RunObserved recorded no engine events")
	}
}

// TestRunObservedMatchesBatchRun pins that instrumenting a cell runs
// that cell: for a multi-stack, a batch-size and a variant cell (the
// axes an instrumented run once dropped), the observed result equals
// BatchRun's bit for bit and the collector saw the run.
func TestRunObservedMatchesBatchRun(t *testing.T) {
	cells := []BatchCell{
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 2, AllReduce: AllReduceTree},
		{Config: ConfigHeteroPIM, Model: AlexNet, BatchSize: 64, FreqScale: 2},
		{Model: AlexNet, BatchSize: 64, Variant: &Variant{OperationPipeline: true}},
	}
	want, err := BatchRun(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		m := NewMetrics()
		got, err := RunObserved(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("cell %d: observed result differs from BatchRun:\n got %+v\nwant %+v", i, got, want[i])
		}
		if m.CounterValue("sim.events") == 0 {
			t.Errorf("cell %d: RunObserved recorded no engine events", i)
		}
	}
}

// TestParseConfig pins the flag-name mapping and its error text.
func TestParseConfig(t *testing.T) {
	for name, want := range map[string]Config{
		"cpu": ConfigCPU, "GPU": ConfigGPU, "progr": ConfigProgrPIM,
		"fixed": ConfigFixedPIM, "Hetero": ConfigHeteroPIM,
	} {
		got, err := ParseConfig(name)
		if err != nil || got != want {
			t.Fatalf("ParseConfig(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseConfig("tpu")
	if err == nil || !strings.Contains(err.Error(), "hetero") {
		t.Fatalf("unknown config error must list valid names, got: %v", err)
	}
	if got := ConfigNames(); len(got) != 5 {
		t.Fatalf("ConfigNames() = %v, want 5 names", got)
	}
}
