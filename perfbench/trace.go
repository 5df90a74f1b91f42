package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"heteropim/internal/metrics"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call (the program itself is not traced).
type span struct {
	id, parent int // parent 0 = root
	layer      string
	name       string
	job        string // request identifier shared by a request's spans
	start, end time.Duration
}

// tracer keeps spans in memory on one goroutine and writes them at exit.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the currently open spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(layer, name, job string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].id
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, layer: layer,
		name: name, job: job, start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i (the innermost open span) and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	return t.spans[i].end - t.spans[i].start
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(layer, name string, fn func()) time.Duration {
	i := t.begin(layer, name, "")
	fn()
	return t.end(i)
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span never overlap: the ladder is sequential.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// layerTable summarises spans per layer: calls, total and self time,
// ordered by self time (the tfprof "-order_by micros" view).
func (t *tracer) layerTable() []string {
	type row struct {
		layer       string
		calls       int
		total, self time.Duration
	}
	rows := map[string]*row{}
	self := t.selfTimes()
	for i, s := range t.spans {
		r := rows[s.layer]
		if r == nil {
			r = &row{layer: s.layer}
			rows[s.layer] = r
		}
		r.calls++
		r.total += s.end - s.start
		r.self += self[i]
	}
	var list []*row
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].self != list[j].self {
			return list[i].self > list[j].self
		}
		return list[i].layer < list[j].layer
	})
	out := []string{fmt.Sprintf("  %-10s %6s %12s %12s", "layer", "calls", "total_ms", "self_ms")}
	for _, r := range list {
		out = append(out, fmt.Sprintf("  %-10s %6d %12.3f %12.3f", r.layer, r.calls,
			r.total.Seconds()*1e3, r.self.Seconds()*1e3))
	}
	return out
}

// write stores the spans as a Chrome trace (one thread per layer, each
// event carrying its self time and request id) and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	layers := map[string]int{}
	var names []string
	for _, s := range t.spans {
		if _, ok := layers[s.layer]; !ok {
			layers[s.layer] = 0
			names = append(names, s.layer)
		}
	}
	sort.Strings(names)
	ct := metrics.ChromeTrace{DisplayTimeUnit: "ms"}
	for i, n := range names {
		layers[n] = i + 1
		ct.TraceEvents = append(ct.TraceEvents, metrics.TraceEvent{Name: "thread_name", Phase: "M",
			PID: 1, TID: i + 1, Args: map[string]any{"name": n}})
	}
	self := t.selfTimes()
	for i, s := range t.spans {
		args := map[string]any{"self_us": float64(self[i].Nanoseconds()) / 1e3, "id": s.id, "parent": s.parent}
		if s.job != "" {
			args["job"] = s.job
		}
		ct.TraceEvents = append(ct.TraceEvents, metrics.TraceEvent{Name: s.name, Phase: "X",
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: layers[s.layer], Cat: s.layer, Args: args})
	}
	if err := ct.Validate(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(ct)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
