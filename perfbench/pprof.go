package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// cpuPackages are the buckets CPU samples are attributed to; "other"
// holds the runtime scheduler, syscalls and every package not listed.
var cpuPackages = []string{"nn", "core", "sim", "device", "pim", "batch", "serve", "cluster", "http", "json", "gc", "other"}

// gcFrames mark a sample as memory-management work wherever they occur
// in its stack.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.mallocgc", "runtime.gcStart", "runtime.markroot"}

// bucketOf maps one function name to its bucket, or "" to keep walking
// toward the caller.
func bucketOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "net/http."):
		return "http"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "heteropim/internal/"):
		pkg := strings.TrimPrefix(fn, "heteropim/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, p := range cpuPackages {
			if p == pkg {
				return p
			}
		}
	}
	return ""
}

// attributeProfiles reads CPU profiles and sets cpu.<bucket> to each
// bucket's share of the sampled CPU time: a sample belongs to gc when a
// collector frame is on its stack, otherwise to the innermost frame in
// a listed package (so a map lookup counts against its caller).
func attributeProfiles(rep *report, paths ...string) error {
	shares := map[string]float64{}
	var total float64
	for _, path := range paths {
		traces, err := readTraces(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, t := range traces {
			bucket := "other"
		walk:
			for _, fn := range t.stack {
				for _, g := range gcFrames {
					if fn == g {
						bucket = "gc"
						break walk
					}
				}
			}
			if bucket != "gc" {
				for _, fn := range t.stack {
					if b := bucketOf(fn); b != "" {
						bucket = b
						break
					}
				}
			}
			shares[bucket] += t.ns
			total += t.ns
		}
	}
	if total == 0 {
		return errors.New("CPU profiles hold no samples")
	}
	var core float64
	var parts []string
	for _, b := range cpuPackages {
		rep.set("cpu."+b, shares[b]/total)
		parts = append(parts, fmt.Sprintf("%s %.1f%%", b, 100*shares[b]/total))
		switch b {
		case "sim", "core", "device", "pim", "nn":
			core += shares[b] / total
		}
	}
	rep.printf("cpu attribution (%.2f s sampled): %s", total/1e9, strings.Join(parts, ", "))
	rep.printf("cpu share in sim+core+device+pim+nn: %.1f%%", 100*core)
	return nil
}

// trace is one distinct stack of a CPU profile and the CPU time sampled
// in it.
type trace struct {
	ns    float64
	stack []string // function names, leaf first
}

// readTraces lists a CPU profile's stacks with `go tool pprof -traces`.
// Each stack is a block after a dashed separator: its first line is the
// value and the leaf function, the following lines are the callers.
func readTraces(path string) ([]trace, error) {
	out, err := command(context.Background(), ".", "go", "tool", "pprof", "-traces", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	var traces []trace
	in := false
	for _, line := range strings.Split(string(out), "\n") {
		fn := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		switch {
		case strings.HasPrefix(line, "-----------+"):
			in = false
			traces = append(traces, trace{})
		case len(traces) == 0 || fn == "":
		case !in:
			value, leaf, _ := strings.Cut(fn, " ")
			ns, err := strconv.ParseFloat(strings.TrimSuffix(value, "ns"), 64)
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", value, err)
			}
			traces[len(traces)-1] = trace{ns: ns, stack: []string{strings.TrimSpace(leaf)}}
			in = true
		default:
			t := &traces[len(traces)-1]
			t.stack = append(t.stack, fn)
		}
	}
	return traces, nil
}
