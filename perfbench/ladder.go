package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"heteropim"
	"heteropim/internal/batch"
	"heteropim/internal/cluster"
	"heteropim/internal/core"
	"heteropim/internal/energy"
	"heteropim/internal/hmc"
	"heteropim/internal/hw"
	"heteropim/internal/metrics"
	"heteropim/internal/nn"
	"heteropim/internal/pim"
	"heteropim/internal/serve"
	"heteropim/internal/thermal"
)

// perLayer are the -trace 1 metrics, reported by every workload. The
// ladder's metrics time public calls in this process and are the same
// measurement on every workload; the zeroOK ones count what the
// workload's own processes did and are 0 where the workload does not
// reach (or its CLI does not expose) that layer.
var perLayer = func() []metricSpec {
	var specs []metricSpec
	for _, m := range cnnModels {
		specs = append(specs,
			metricSpec{name: "nn.build_us." + m, unit: "us"},
			metricSpec{name: "core.profile_us." + m, unit: "us"},
			metricSpec{name: "core.template_us." + m, unit: "us"},
			metricSpec{name: "core.run_ms." + m, unit: "ms"},
			metricSpec{name: "sim.events." + m, unit: "count"},
			metricSpec{name: "sim.ns_per_event." + m, unit: "ns"})
	}
	specs = append(specs,
		metricSpec{name: "core.serial_us", unit: "us"},
		metricSpec{name: "core.multistack_ms", unit: "ms"},
		metricSpec{name: "core.delta_probe_ms", unit: "ms"},
		metricSpec{name: "core.delta_replay_ms", unit: "ms"},
		metricSpec{name: "batch.bound_us", unit: "us"},
		metricSpec{name: "dse.calibrated_pruned", unit: "count"},
		metricSpec{name: "cache.l1_hit_us", unit: "us"},
		metricSpec{name: "cache.l2_hit_us", unit: "us"},
		metricSpec{name: "cache.l2_store_us", unit: "us"},
		metricSpec{name: "energy.evaluate_us", unit: "us"},
		metricSpec{name: "thermal.placement_us", unit: "us"},
		metricSpec{name: "serve.encode_us", unit: "us"},
		metricSpec{name: "serve.submit_us", unit: "us"},
		metricSpec{name: "serve.fetch_us", unit: "us"},
		metricSpec{name: "serve.queue_ms", unit: "ms"},
		metricSpec{name: "serve.run_ms", unit: "ms"},
		metricSpec{name: "serve.cold_unaccounted_ms", unit: "ms"},
		metricSpec{name: "cluster.forward_us", unit: "us"},
		metricSpec{name: "runner.cpu_per_wall", unit: "ratio"},
		metricSpec{name: "trace.overhead_s", unit: "s"},
	)
	for _, name := range []string{"dse.simulated", "dse.replays", "batch.groups", "batch.leaders",
		"cache.hits", "cache.misses", "serve.jobs_run", "serve.dedup_hits", "serve.rejected",
		"cluster.retries", "cluster.peer_hits"} {
		specs = append(specs, metricSpec{name: name, unit: "count", zeroOK: true})
	}
	for _, name := range []string{"dse.pruned_frac", "cache.hit_ratio", "serve.cells_per_batch"} {
		specs = append(specs, metricSpec{name: name, unit: "ratio", zeroOK: true})
	}
	for _, pkg := range cpuPackages {
		specs = append(specs, metricSpec{name: "cpu." + pkg, unit: "share", zeroOK: true})
	}
	return specs
}()

// ladderExpected is expected/ladder.json: exact event counts per model.
type ladderExpected struct {
	Events map[string]float64 `json:"events"`
}

// ladder times one call into each layer's public functions: one Hetero
// PIM cell per CNN through nn, core, sim, plus one CPU cell, the DSE
// layers, the result cache, energy and thermal, and an in-process serve
// fleet behind a router. Spans are written as a Chrome trace.
func (b *bench) ladder(rep *report) error {
	var exp ladderExpected
	data, err := b.readExpected("ladder.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &exp); err != nil {
		return err
	}
	tr := newTracer()
	l := &ladderRun{b: b, rep: rep, tr: tr}
	defer core.EnableResultCache(core.EnableResultCache(false))
	defer core.SetResultCacheDir(core.SetResultCacheDir(""))

	for _, m := range cnnModels {
		if err := l.model(nn.ModelName(m), exp.Events[m]); err != nil {
			return err
		}
	}
	steps := []func() error{l.serial, l.multistack, l.delta, l.dse, l.cache, l.energyThermal, l.serve}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}

	rep.printf("layer ladder self time (spans recorded around public calls):")
	rep.lines = append(rep.lines, tr.layerTable()...)
	path, err := tr.write(filepath.Join(filepath.Dir(filepath.Dir(b.work)), "traces"),
		fmt.Sprintf("%s-seed%d.trace.json", b.workload, b.seed))
	if err != nil {
		return err
	}
	rep.printf("chrome trace: %s (%d spans)", path, len(tr.spans))
	return nil
}

type ladderRun struct {
	b   *bench
	rep *report
	tr  *tracer
}

// reps runs fn n times inside spans and returns the median seconds.
func (l *ladderRun) reps(n int, layer, name string, fn func()) float64 {
	var xs []float64
	for i := 0; i < n; i++ {
		xs = append(xs, l.tr.do(layer, name, fn).Seconds())
	}
	return median(xs)
}

// model measures one Hetero PIM cell: graph build, profiling and
// selection, template instantiation, the live event loop and its event
// count.
func (l *ladderRun) model(m nn.ModelName, wantEvents float64) error {
	var g *nn.Graph
	var err error
	build := l.reps(5, "nn", "nn.Build "+string(m), func() { g, err = nn.Build(m) })
	if err != nil {
		return err
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	profile := l.reps(5, "core", "core.CandidateSet "+string(m), func() { core.CandidateSet(g, cfg.CPU) })

	opts := core.HeteroOptions()
	core.EnableResultCache(false)
	run := func() {
		_, rerr := core.RunPIM(g, cfg, opts)
		err = firstErr(err, rerr)
	}
	// Interleave template-cold and warm runs so drift hits both alike.
	var firsts, lives []float64
	for i := 0; i < 5; i++ {
		firsts = append(firsts, l.tr.do("core", "core.RunPIM first after ResetTaskTemplates "+string(m), func() {
			core.ResetTaskTemplates()
			run()
		}).Seconds())
		lives = append(lives, l.tr.do("sim", "core.RunPIM live "+string(m), run).Seconds())
	}
	first, live := median(firsts), median(lives)
	if err != nil {
		return err
	}
	c := metrics.NewCollector()
	copts := opts
	copts.Collector = c
	l.tr.do("sim", "core.RunPIM collected "+string(m), func() { _, err = core.RunPIM(g, cfg, copts) })
	if err != nil {
		return err
	}
	events := c.Registry().CounterValue("sim.events")
	if events != wantEvents {
		l.rep.fail("sim.events.%s = %.0f, want %.0f (expected/ladder.json)", m, events, wantEvents)
	}
	l.rep.set("nn.build_us."+string(m), build*1e6)
	l.rep.set("core.profile_us."+string(m), profile*1e6)
	l.rep.set("core.template_us."+string(m), (first-live)*1e6)
	l.rep.set("core.run_ms."+string(m), live*1e3)
	l.rep.set("sim.events."+string(m), events)
	l.rep.set("sim.ns_per_event."+string(m), live*1e9/events)
	return nil
}

// serial measures the one CPU cell (the serial executor).
func (l *ladderRun) serial() error {
	g, err := nn.Build("VGG-19")
	if err != nil {
		return err
	}
	cfg := hw.PaperConfigScaled(hw.ConfigCPU, 1)
	l.rep.set("core.serial_us", 1e6*l.reps(5, "core", "core.RunCPU VGG-19", func() { core.RunCPU(g, cfg) }))
	return nil
}

// multistack measures a 2-stack ring all-reduce Hetero PIM cell.
func (l *ladderRun) multistack() error {
	g, err := nn.Build("VGG-19")
	if err != nil {
		return err
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	t := l.reps(3, "core", "core.RunMulti VGG-19 x2 ring", func() {
		_, err = core.RunMulti(hw.ConfigHeteroPIM, g, cfg, 2, core.ReduceRing)
	})
	l.rep.set("core.multistack_ms", t*1e3)
	return err
}

// delta measures a DeltaPlan probe and one replay at half the unit
// budget, and checks the replay against a from-scratch run.
func (l *ladderRun) delta() error {
	g, err := nn.Build("VGG-19")
	if err != nil {
		return err
	}
	base := batch.Candidate{Units: hw.PaperFixedUnits, FreqScale: 1, ProgProcessors: 1}
	half := base
	half.Units /= 2
	opts := core.HeteroOptions()
	var plan *core.DeltaPlan
	probe := l.reps(3, "core", "core.NewDeltaPlan VGG-19", func() {
		plan, _, err = core.NewDeltaPlan(g, base.Config(), opts)
	})
	if err != nil {
		return err
	}
	if plan == nil {
		return fmt.Errorf("delta plan for VGG-19 has no boundaries")
	}
	var replayed core.Result
	replay := l.reps(5, "core", "DeltaPlan.Replay VGG-19", func() {
		replayed, _, err = plan.Replay(half.Config())
	})
	if err != nil {
		return err
	}
	live, err := core.RunPIM(g, half.Config(), opts)
	if err != nil {
		return err
	}
	if a, b := mustJSON(replayed), mustJSON(live); !bytes.Equal(a, b) {
		l.rep.fail("DeltaPlan replay of VGG-19 at %s differs from a from-scratch run", half)
	}
	l.rep.set("core.delta_probe_ms", probe*1e3)
	l.rep.set("core.delta_replay_ms", replay*1e3)
	return nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain value structs only
	}
	return data
}

// dseModel is the model whose xl search the ladder repeats in process.
const dseModel = "DCGAN"

// dse measures the admissible bound and repeats one model's xl search
// in the shipped mode, checking its winner and calibrated-prune count.
func (l *ladderRun) dse() error {
	exp, err := l.b.dseExpected()
	if err != nil {
		return err
	}
	g, err := nn.Build(dseModel)
	if err != nil {
		return err
	}
	cfg := batch.Candidate{Units: hw.PaperFixedUnits, FreqScale: 1, ProgProcessors: 1}.Config()
	bound := l.reps(21, "batch", "batch.StepTimeLowerBound "+dseModel, func() {
		batch.StepTimeLowerBound(g, cfg, core.HeteroOptions())
	})
	l.rep.set("batch.bound_us", bound*1e6)

	cands, err := xlGrid()
	if err != nil {
		return err
	}
	core.EnableResultCache(true)
	core.ResetResultCache()
	defer core.EnableResultCache(false)
	var ex batch.Exploration
	l.tr.do("batch", "batch.ExploreDSE xl "+dseModel, func() {
		ex, err = batch.ExploreDSE(context.Background(), dseModel, cands, batch.DSEOptions{
			Prune: true, Surrogate: true, Delta: true, DeepDelta: true, Calibrate: true, Confidence: true,
			Stacks: 1, AllReduce: nn.AllReduceRing})
	})
	if err != nil {
		return err
	}
	if got := ex.Winner.Candidate.String(); got != exp.Winners[dseModel] {
		l.rep.fail("in-process xl search of %s: winner %s, want %s", dseModel, got, exp.Winners[dseModel])
	}
	if ex.CalibratedPruned != exp.CalibratedPruned[dseModel] {
		l.rep.fail("in-process xl search of %s: calibrated_pruned %d, want %d", dseModel,
			ex.CalibratedPruned, exp.CalibratedPruned[dseModel])
	}
	l.rep.set("dse.calibrated_pruned", float64(ex.CalibratedPruned))
	return nil
}

// xlGrid rebuilds the pimdse -grid xl candidate space: ten PLL points,
// a 96-rung geometric unit ladder over a 64x span below each point's
// thermal maximum, and 1, 2 or 4 programmable processors.
func xlGrid() ([]batch.Candidate, error) {
	stack, err := hmc.New(hw.PaperStack(1))
	if err != nil {
		return nil, err
	}
	const rungs, span = 96, 64
	var cands []batch.Candidate
	for _, scale := range []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 3.5, 4} {
		maxUnits, err := thermal.MaxUnitsUnderCap(stack, thermal.DRAMThermalCap, scale)
		if err != nil {
			return nil, err
		}
		prev := 0
		for r := 0; r < rungs; r++ {
			units := int(float64(maxUnits)*math.Pow(1.0/span, float64(r)/float64(rungs-1)) + 0.5)
			if units < 1 || units == prev {
				continue
			}
			prev = units
			for _, procs := range []int{1, 2, 4} {
				cands = append(cands, batch.Candidate{Units: units, FreqScale: scale, ProgProcessors: procs})
			}
		}
	}
	return cands, nil
}

// cache measures the result cache: a memory (L1) hit, a disk (L2) hit,
// and the cost a disk store adds to a miss, on one CPU cell.
func (l *ladderRun) cache() error {
	g, err := nn.Build("AlexNet")
	if err != nil {
		return err
	}
	cfg := hw.PaperConfigScaled(hw.ConfigCPU, 1)
	dir := filepath.Join(l.b.work, "l2")
	core.EnableResultCache(true)
	defer core.EnableResultCache(false)
	defer core.SetResultCacheDir("")

	miss := func(withDir bool) float64 {
		var xs []float64
		for i := 0; i < 9; i++ {
			core.ResetResultCache()
			d := ""
			if withDir {
				d = filepath.Join(dir, fmt.Sprint(i))
			}
			core.SetResultCacheDir(d)
			xs = append(xs, l.tr.do("cache", fmt.Sprintf("core.RunCPU miss (disk=%t)", withDir), func() {
				core.RunCPU(g, cfg)
			}).Seconds())
		}
		return median(xs)
	}
	store := miss(true) - miss(false)
	l1 := l.reps(21, "cache", "core.RunCPU L1 hit", func() { core.RunCPU(g, cfg) })
	var l2s []float64
	for i := 0; i < 9; i++ {
		core.SetResultCacheDir(filepath.Join(dir, fmt.Sprint(i)))
		core.DropResultCacheMemory()
		l2s = append(l2s, l.tr.do("cache", "core.RunCPU L2 hit", func() { core.RunCPU(g, cfg) }).Seconds())
	}
	if st := core.ResultCacheStats(); st.DiskHits == 0 {
		l.rep.fail("cache ladder: no disk hit after dropping the memory tier")
	}
	l.rep.set("cache.l1_hit_us", l1*1e6)
	l.rep.set("cache.l2_hit_us", median(l2s)*1e6)
	l.rep.set("cache.l2_store_us", store*1e6)
	return nil
}

// energyThermal measures the energy model on one result and the
// thermal-aware placement of the paper's unit budget.
func (l *ladderRun) energyThermal() error {
	g, err := nn.Build("VGG-19")
	if err != nil {
		return err
	}
	r, err := core.RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1), core.HeteroOptions())
	if err != nil {
		return err
	}
	l.rep.set("energy.evaluate_us", 1e6*l.reps(51, "energy", "energy.Evaluate", func() { energy.Evaluate(r) }))
	stack, err := hmc.New(hw.PaperStack(1))
	if err != nil {
		return err
	}
	spec := hw.PaperFixedPIM(hw.PaperFixedUnits)
	t := l.reps(5, "thermal", "thermal.PlacementMaxTemp", func() {
		var pl pim.Placement
		if pl, err = pim.ThermalPlacement(stack, hw.PaperFixedUnits); err == nil {
			_, err = thermal.PlacementMaxTemp(stack, pl, spec, 1)
		}
	})
	l.rep.set("thermal.placement_us", t*1e6)
	return err
}

// serve measures the serving layers in process: two replicas with a
// 2 ms coalescing window behind a router, on loopback HTTP with one
// client connection. Hot requests (already simulated) time submit and
// fetch directly at the owner and through the router; cold requests
// (one fresh Hetero PIM cell per CNN) compare client latency with the
// queue and run times the job reports.
func (l *ladderRun) serve() error {
	core.EnableResultCache(true)
	core.ResetResultCache()
	core.SetResultCacheDir(filepath.Join(l.b.work, "serve-l2"))
	defer core.EnableResultCache(false)
	defer core.SetResultCacheDir("")

	var replicas []cluster.Replica
	var servers []*serve.Server
	urls := map[string]string{}
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Options{QueueCapacity: 64, JobTimeout: time.Minute, CoalesceWindow: 2 * time.Millisecond})
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		name := fmt.Sprintf("replica-%d", i)
		replicas = append(replicas, cluster.Replica{Name: name, BaseURL: hs.URL})
		servers = append(servers, srv)
		urls[name] = hs.URL
	}
	rt := cluster.NewRouter(cluster.RouterOptions{Replicas: replicas})
	defer rt.Close()
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()
	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	// Cold: one fresh cell per CNN through the router.
	var queue, run, unaccounted []float64
	for _, m := range cnnModels {
		bc := heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: heteropim.Model(m)}
		req := serve.RequestFromBatch(bc)
		id, err := serve.JobID(req)
		if err != nil {
			return err
		}
		sp := l.tr.begin("client", "cold request "+m, id)
		body, err := l.submitFetch(client, rs.URL, req, id)
		lat := l.tr.end(sp)
		if err != nil {
			return err
		}
		want, err := directBytes([]heteropim.BatchCell{bc})
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want[0]) {
			l.rep.fail("in-process served %s differs from serve.EncodeResult of a direct run", m)
		}
		var st serve.JobStatus
		if err := getJSON(client, rs.URL+"/v1/jobs/"+id, &st); err != nil {
			return err
		}
		queue, run = append(queue, st.QueueMs), append(run, st.RunMs)
		unaccounted = append(unaccounted, lat.Seconds()*1e3-st.QueueMs-st.RunMs)
	}
	l.rep.set("serve.queue_ms", median(queue))
	l.rep.set("serve.run_ms", median(run))
	l.rep.set("serve.cold_unaccounted_ms", median(unaccounted))

	// Hot: the same cell, already done, direct to its owner and routed.
	req := serve.RequestFromBatch(heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: "AlexNet"})
	id, err := serve.JobID(req)
	if err != nil {
		return err
	}
	owner, ok := rt.Owner(id)
	if !ok {
		return fmt.Errorf("router has no owner for %s", id)
	}
	direct := urls[owner]
	body := mustJSON(req)
	results, err := heteropim.BatchRun([]heteropim.BatchCell{{Config: heteropim.ConfigHeteroPIM, Model: "AlexNet"}})
	if err != nil {
		return err
	}
	r := results[0]
	l.rep.set("serve.encode_us", 1e6*l.reps(51, "serve", "serve.EncodeResult", func() {
		serve.EncodeResult(r)
	}))
	var herr error
	l.rep.set("serve.submit_us", 1e6*l.reps(31, "serve", "POST /v1/jobs (hot, owner)", func() {
		herr = firstErr(herr, post(client, direct+"/v1/jobs", body))
	}))
	l.rep.set("serve.fetch_us", 1e6*l.reps(31, "serve", "GET /v1/jobs/{id}/result (hot, owner)", func() {
		_, err := fetch(client, direct+"/v1/jobs/"+id+"/result?wait=30s")
		herr = firstErr(herr, err)
	}))
	directRT := l.reps(31, "client", "hot round trip (owner)", func() {
		_, err := l.submitFetch(client, direct, req, id)
		herr = firstErr(herr, err)
	})
	routedRT := l.reps(31, "client", "hot round trip (router)", func() {
		_, err := l.submitFetch(client, rs.URL, req, id)
		herr = firstErr(herr, err)
	})
	if herr != nil {
		return herr
	}
	l.rep.set("cluster.forward_us", (routedRT-directRT)*1e6)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, srv := range servers {
		if err := srv.Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// submitFetch is one client interaction (POST the job, long-poll its
// result bytes) with submit and fetch spans keyed by the job id.
func (l *ladderRun) submitFetch(client *http.Client, base string, req serve.JobRequest, id string) ([]byte, error) {
	sp := l.tr.begin("serve", "submit", id)
	err := post(client, base+"/v1/jobs", mustJSON(req))
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = l.tr.begin("serve", "fetch", id)
	defer l.tr.end(sp)
	return fetch(client, base+"/v1/jobs/"+id+"/result?wait=60s")
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// post sends one job body and requires a 200 or 202.
func post(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(data)))
	}
	return nil
}

// fetch reads a 200 body.
func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func getJSON(client *http.Client, url string, v any) error {
	data, err := fetch(client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// directBytes runs cells in this process and encodes each result the
// way the daemon does: the ground truth for served bodies. The result
// cache is off meanwhile, so each reference is a fresh simulation and
// not a result an in-process replica already stored.
func directBytes(cells []heteropim.BatchCell) ([][]byte, error) {
	defer core.EnableResultCache(core.EnableResultCache(false))
	results, err := heteropim.BatchRun(cells)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(results))
	for i, r := range results {
		out[i] = serve.EncodeResult(r)
	}
	return out, nil
}
