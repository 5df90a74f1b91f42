package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heteropim"
	"heteropim/internal/nn"
	"heteropim/internal/serve"
)

// Serve workload shape: servePasses passes, each on a fresh fleet and
// spread over the run. A pass runs two seeded Poisson streams, each on
// its own connection, then closed-loop batches from two clients: one
// ping-pong batch of hot requests (hot_rps) and one windowed batch of
// first-touch cells (wall_s). Extra fleets are only launched, warmed
// and stopped, so setup_s has more samples than there are passes.
const (
	hotRate       = 80.0 // hot requests per second
	coldRate      = 20.0 // cold requests per second
	closedClients = 2
	hotBatch      = 2000 // hot requests per closed-loop batch
	servePasses   = 5    // loaded fleets; wall_s, cpu_s and peak_rss_mb are medians over them
	coldWindow    = 4    // cold jobs a closed-loop client keeps submitted and not yet fetched
	idleSetups    = 2    // set-up-only fleets before each pass; setup_s is the median of all set-ups
)

// coldBatchSizes are the minibatch sizes of a cold closed-loop batch;
// pass k adds k to each, so every pass's batch is new work of the same
// shape. For every k < 10 none of them is a paper batch size or in the
// open-loop cold pool. They are large enough that simulation, not the
// per-request round trips, takes most of a cold batch's time.
var coldBatchSizes = []int{40, 80, 160, 320, 640}

// servedCell is one distinct cell the load generator asks for.
type servedCell struct {
	bc  heteropim.BatchCell
	req serve.JobRequest
	id  string
	key string // request body, the dedup identity on the wire
}

func newServedCell(bc heteropim.BatchCell) (servedCell, error) {
	req := serve.RequestFromBatch(bc)
	id, err := serve.JobID(req)
	if err != nil {
		return servedCell{}, err
	}
	return servedCell{bc: bc, req: req, id: id, key: string(mustJSON(req))}, nil
}

// hotSet is the 25 paper-grid cells (5 CNNs x 5 configs) set-up warms.
func hotSet() ([]servedCell, error) {
	var out []servedCell
	for _, m := range cnnModels {
		for _, c := range []heteropim.Config{heteropim.ConfigCPU, heteropim.ConfigGPU,
			heteropim.ConfigProgrPIM, heteropim.ConfigFixedPIM, heteropim.ConfigHeteroPIM} {
			sc, err := newServedCell(heteropim.BatchCell{Config: c, Model: heteropim.Model(m)})
			if err != nil {
				return nil, err
			}
			out = append(out, sc)
		}
	}
	return out, nil
}

// coldPool is every first-touch cell the cold stream may draw: the PIM
// configs x CNNs x 10 freq_scales x 5 batch sizes, plus variant,
// processor-count and multi-stack cells. Cells that would share a
// result with the hot set (paper batch at 1x, the full RC+OP variant)
// are left out, so every cold request is a new job that simulates
// unless another cold cell already produced the same result.
func coldPool() ([]servedCell, error) {
	var cells []heteropim.BatchCell
	freqs := []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 3.5, 4}
	for _, m := range cnnModels {
		for _, c := range []heteropim.Config{heteropim.ConfigProgrPIM, heteropim.ConfigFixedPIM, heteropim.ConfigHeteroPIM} {
			for _, f := range freqs {
				for _, bs := range []int{16, 32, 64, 128, 256} {
					if f == 1 && bs == nn.DefaultBatch(nn.ModelName(m)) {
						continue
					}
					cells = append(cells, heteropim.BatchCell{Config: c, Model: heteropim.Model(m), FreqScale: f, BatchSize: bs})
				}
			}
		}
		for _, v := range []heteropim.Variant{{}, {RecursiveKernels: true}, {OperationPipeline: true}} {
			v := v
			cells = append(cells, heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: heteropim.Model(m), Variant: &v})
		}
		for _, p := range []int{2, 4, 8} {
			cells = append(cells, heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: heteropim.Model(m), Processors: p})
		}
	}
	for _, m := range []string{"VGG-19", "ResNet-50"} {
		for _, s := range []int{2, 4} {
			for _, ar := range []string{"ring", "tree"} {
				cells = append(cells, heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: heteropim.Model(m), Stacks: s, AllReduce: ar})
			}
		}
	}
	out := make([]servedCell, len(cells))
	for i, bc := range cells {
		sc, err := newServedCell(bc)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}

// poissonOffsets returns n arrival offsets of a Poisson process
// conditioned on n arrivals in [0, d): sorted uniform draws.
func poissonOffsets(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// servePass is the seeded request schedule of one pass.
type servePass struct {
	hotAt, coldAt []time.Duration
	hotPick       []int        // hot stream: index into the hot set per arrival
	cold          []servedCell // cold stream cells, one per arrival
	coldClosed    []servedCell // the cold closed-loop batch
}

// serveLoad is the seeded request schedule of one run.
type serveLoad struct {
	hot       []servedCell
	hotClosed []servedCell // the hot closed-loop batch, in send order
	passes    []servePass
}

// newServeLoad draws the schedule: the open-loop phases last d in all;
// hot picks follow a Zipf law over a seeded ranking of the hot set;
// cold cells are drawn without replacement over the whole run.
func newServeLoad(seed int64, d time.Duration) (*serveLoad, error) {
	hot, err := hotSet()
	if err != nil {
		return nil, err
	}
	pool, err := coldPool()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	dp := d / servePasses
	nHot := int(math.Round(hotRate * dp.Seconds()))
	nCold := int(math.Round(coldRate * dp.Seconds()))
	if nCold*servePasses > len(pool) {
		return nil, fmt.Errorf("cold streams need %d cells, pool has %d", nCold*servePasses, len(pool))
	}
	l := &serveLoad{hot: hot}
	rank := rng.Perm(len(hot))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(hot)-1))
	for i := 0; i < hotBatch; i++ {
		l.hotClosed = append(l.hotClosed, hot[rank[zipf.Uint64()]])
	}
	coldOrder := rng.Perm(len(pool))
	for p := 0; p < servePasses; p++ {
		ps := servePass{hotAt: poissonOffsets(rng, nHot, dp), coldAt: poissonOffsets(rng, nCold, dp)}
		for i := 0; i < nHot; i++ {
			ps.hotPick = append(ps.hotPick, rank[zipf.Uint64()])
		}
		for _, i := range coldOrder[p*nCold : (p+1)*nCold] {
			ps.cold = append(ps.cold, pool[i])
		}
		// The cold closed-loop batch: every (PIM config, CNN) pair at
		// each of coldBatchSizes+p, 1x. Larger minibatches go first, so
		// the batch does not end on one slow cell running alone; the
		// seed orders cells of equal size.
		for _, m := range cnnModels {
			for _, c := range []heteropim.Config{heteropim.ConfigProgrPIM, heteropim.ConfigFixedPIM, heteropim.ConfigHeteroPIM} {
				for _, bs := range coldBatchSizes {
					sc, err := newServedCell(heteropim.BatchCell{Config: c, Model: heteropim.Model(m), BatchSize: bs + p})
					if err != nil {
						return nil, err
					}
					ps.coldClosed = append(ps.coldClosed, sc)
				}
			}
		}
		rng.Shuffle(len(ps.coldClosed), func(i, j int) { ps.coldClosed[i], ps.coldClosed[j] = ps.coldClosed[j], ps.coldClosed[i] })
		sort.SliceStable(ps.coldClosed, func(i, j int) bool {
			return ps.coldClosed[i].bc.BatchSize > ps.coldClosed[j].bc.BatchSize
		})
		l.passes = append(l.passes, ps)
	}
	return l, nil
}

// fleet is a pimserve router in front of two replicas, separate
// processes sharing one fresh cache directory.
type fleet struct {
	router   *daemon
	replicas []*daemon
	url      string
	urls     []string // replica base URLs
	profiles []string
}

// waitAddr polls an -addrfile until the daemon has written its URL.
func waitAddr(path string, d *daemon) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			return strings.TrimSpace(string(data)), nil
		}
		select {
		case <-d.done:
			return "", fmt.Errorf("%s exited during start-up: %s", d.name, lastLines(d.stderr.String(), 5))
		case <-time.After(time.Millisecond):
		}
	}
	return "", fmt.Errorf("%s did not report its address", d.name)
}

// launchFleet starts the replicas and the router and waits until the
// router lists both replicas ready.
func (b *bench) launchFleet(dir string, profile bool) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{}
	start := func(name string, args ...string) (*daemon, string, error) {
		addr := filepath.Join(dir, name+".addr")
		args = append([]string{"-addr", "127.0.0.1:0", "-addrfile", addr}, args...)
		if profile {
			prof := filepath.Join(dir, name+".prof")
			args = append(args, "-cpuprofile", prof)
			f.profiles = append(f.profiles, prof)
		}
		d, err := startDaemon(dir, b.cli("pimserve"), args...)
		if err != nil {
			return nil, "", err
		}
		url, err := waitAddr(addr, d)
		return d, url, err
	}
	for i := 0; i < 2; i++ {
		d, url, err := start(fmt.Sprintf("replica%d", i), "-coalesce", "2ms", "-cachedir", filepath.Join(dir, "l2"))
		if d != nil {
			f.replicas = append(f.replicas, d)
		}
		if err != nil {
			f.kill()
			return nil, err
		}
		f.urls = append(f.urls, url)
	}
	d, url, err := start("router", "-router", "-backends", strings.Join(f.urls, ","))
	f.router, f.url = d, url
	if err != nil {
		f.kill()
		return nil, err
	}
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		var list []struct {
			Ready bool `json:"ready"`
		}
		if err := getJSON(client, f.url+"/v1/replicas", &list); err == nil {
			ready := 0
			for _, r := range list {
				if r.Ready {
					ready++
				}
			}
			if ready == 2 {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.kill()
			return nil, fmt.Errorf("router never listed both replicas ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends every fleet process without a drain (error paths).
func (f *fleet) kill() {
	for _, d := range append(f.replicas, f.router) {
		if d != nil {
			d.kill()
		}
	}
}

// stop drains the router, then the replicas, and sums their CPU seconds
// and peak RSS.
func (f *fleet) stop() (cpu, rssMB float64, err error) {
	for _, d := range append([]*daemon{f.router}, f.replicas...) {
		c, r, derr := d.stop(30 * time.Second)
		cpu, rssMB = cpu+c, rssMB+r
		err = firstErr(err, derr)
	}
	return cpu, rssMB, err
}

// scrape sums Prometheus counters (without the heteropim_ prefix) over
// the given endpoints.
func scrape(urls ...string) (map[string]float64, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	out := map[string]float64{}
	for _, u := range urls {
		data, err := fetch(client, u+"/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.Contains(name, "{") {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			out[strings.TrimPrefix(name, "heteropim_")] += v
		}
	}
	return out, nil
}

// served records one response body for the correctness check.
type served struct {
	cell servedCell
	body []byte
}

// recorder collects response bodies from several goroutines.
type recorder struct {
	mu   sync.Mutex
	list []served
}

func (r *recorder) add(c servedCell, body []byte) {
	r.mu.Lock()
	r.list = append(r.list, served{c, body})
	r.mu.Unlock()
}

// newClient returns a client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// request is one whole client interaction: POST the job, long-poll its
// result bytes. Unlike serve.SubmitAndFetchRequest it does not retry a
// 429, so a refusal counts as a failed request.
func request(client *http.Client, base string, c servedCell) ([]byte, error) {
	if err := post(client, base+"/v1/jobs", []byte(c.key)); err != nil {
		return nil, err
	}
	return fetch(client, base+"/v1/jobs/"+c.id+"/result?wait=90s")
}

// closedLoop sends the cells from closedClients clients, each taking
// the next unsent cell from a shared queue, and returns the wall time
// and the failure count. A client keeps up to window jobs submitted and
// not yet fetched: window 1 is request-response ping-pong; a wider one
// keeps the fleet's workers busy, as a client that submits a batch and
// then collects it does. Taking cells from a shared queue rather than a
// fixed share keeps one client from running on alone.
func closedLoop(base string, cells []servedCell, window int, rec *recorder) (time.Duration, int) {
	var wg sync.WaitGroup
	var next, failed atomic.Int64
	start := time.Now()
	for w := 0; w < closedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var pending []servedCell
			for {
				if len(pending) < window {
					if i := int(next.Add(1) - 1); i < len(cells) {
						if err := post(client, base+"/v1/jobs", []byte(cells[i].key)); err != nil {
							failed.Add(1)
						} else {
							pending = append(pending, cells[i])
						}
						continue
					}
				}
				if len(pending) == 0 {
					return
				}
				c := pending[0]
				pending = pending[1:]
				body, err := fetch(client, base+"/v1/jobs/"+c.id+"/result?wait=90s")
				if err != nil {
					failed.Add(1)
					continue
				}
				rec.add(c, body)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), int(failed.Load())
}

// closedBatch runs one batch through closedLoop, counting its requests,
// and returns the seconds it took.
func closedBatch(base string, cells []servedCell, window int, rec *recorder, rep *report) float64 {
	wall, failed := closedLoop(base, cells, window, rec)
	rep.attempted += len(cells)
	rep.failed += failed
	return wall.Seconds()
}

// setupFleet launches a fleet and warms the hot set through the router
// from closedClients clients; it returns the fleet and the set-up time.
func (b *bench) setupFleet(dir string, profile bool, load *serveLoad, rec *recorder, rep *report) (*fleet, float64, error) {
	start := time.Now()
	f, err := b.launchFleet(dir, profile)
	if err != nil {
		return nil, 0, err
	}
	_, failed := closedLoop(f.url, load.hot, 1, rec)
	rep.attempted += len(load.hot)
	rep.failed += failed
	if failed > 0 {
		f.kill()
		return nil, 0, fmt.Errorf("%d hot-set warm requests failed", failed)
	}
	return f, time.Since(start).Seconds(), nil
}

// serveRun is what the loaded passes measured, pooled over the passes.
type serveRun struct {
	hot, cold []outcome
	closed    []float64          // seconds per hot closed-loop batch
	coldWalls []float64          // seconds per cold closed-loop batch, one per pass
	wall      float64            // seconds from each open loop's start to its fleet's exit, summed
	cpus, rss []float64          // per pass: fleet CPU seconds and summed peak RSS (MB)
	counters  map[string]float64 // summed over the passes' fleets
	statuses  []serve.JobStatus  // cold stream jobs, as GET /v1/jobs/{id} reports them
	profiles  []string           // CPU profiles of the fleets, when profiled
}

// drive runs one pass on a warm fleet: the open-loop phase (two
// streams, one connection each), then the closed-loop batches. It
// checks the fleet's exact counters, collects the cold jobs' statuses
// and stops the fleet, adding what it measured to run.
func (b *bench) drive(f *fleet, load *serveLoad, ps servePass, rec *recorder, rep *report, run *serveRun) error {
	start := time.Now()
	stream := func(at []time.Duration, pick func(i int) servedCell) []outcome {
		client := newClient()
		defer client.CloseIdleConnections()
		return openLoop(context.Background(), at, 1, func(_ context.Context, _, i int) error {
			c := pick(i)
			body, err := request(client, f.url, c)
			if err == nil {
				rec.add(c, body)
			}
			return err
		})
	}
	var hot, cold []outcome
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hot = stream(ps.hotAt, func(i int) servedCell { return load.hot[ps.hotPick[i]] })
	}()
	go func() {
		defer wg.Done()
		cold = stream(ps.coldAt, func(i int) servedCell { return ps.cold[i] })
	}()
	wg.Wait()
	run.hot, run.cold = append(run.hot, hot...), append(run.cold, cold...)
	rep.attempted += len(hot) + len(cold)
	for _, o := range append(append([]outcome(nil), hot...), cold...) {
		if o.Err != nil {
			rep.failed++
		}
	}

	run.closed = append(run.closed, closedBatch(f.url, load.hotClosed, 1, rec, rep))
	run.coldWalls = append(run.coldWalls, closedBatch(f.url, ps.coldClosed, coldWindow, rec, rep))

	counters, err := scrape(append([]string{f.url}, f.urls...)...)
	if err != nil {
		f.kill()
		return err
	}
	checkCounters(counters, load, ps, len(hot), rep)
	for k, v := range counters {
		run.counters[k] += v
	}
	client := newClient()
	for _, c := range ps.cold {
		var st serve.JobStatus
		if err := getJSON(client, f.url+"/v1/jobs/"+c.id, &st); err != nil {
			client.CloseIdleConnections()
			f.kill()
			return err
		}
		run.statuses = append(run.statuses, st)
	}
	client.CloseIdleConnections()
	cpu, rssMB, err := f.stop()
	run.cpus, run.rss = append(run.cpus, cpu), append(run.rss, rssMB)
	run.wall += time.Since(start).Seconds()
	run.profiles = append(run.profiles, f.profiles...)
	return err
}

// checkCounters compares one fleet's exact counters with what its pass
// implies: one job per distinct cell, a dedup hit for every other
// submit.
func checkCounters(c map[string]float64, load *serveLoad, ps servePass, hotSent int, rep *report) {
	distinct := len(load.hot) + len(ps.cold) + len(ps.coldClosed)
	if got := c["serve_jobs_run"]; got != float64(distinct) {
		rep.fail("fleet ran %.0f jobs, want %d (one per distinct cell)", got, distinct)
	}
	submits := distinct + hotSent + len(load.hotClosed)
	if got := c["serve_dedup_hits"]; rep.failed == 0 && got != float64(submits-distinct) {
		rep.fail("fleet dedup hits %.0f, want %d", got, submits-distinct)
	}
}

// checkServed compares every recorded body with serve.EncodeResult of a
// direct in-process run of the same cell.
func checkServed(rec *recorder, rep *report) error {
	var cells []heteropim.BatchCell
	index := map[string]int{}
	for _, s := range rec.list {
		if _, ok := index[s.cell.key]; !ok {
			index[s.cell.key] = len(cells)
			cells = append(cells, s.cell.bc)
		}
	}
	start := time.Now()
	want, err := directBytes(cells)
	if err != nil {
		return err
	}
	bad := 0
	for _, s := range rec.list {
		if !bytes.Equal(s.body, want[index[s.cell.key]]) {
			bad++
		}
	}
	if bad > 0 {
		rep.fail("%d of %d served bodies differ from serve.EncodeResult of a direct run", bad, len(rec.list))
	}
	rep.printf("checked %d served bodies over %d distinct cells against direct runs (%.1f s)", len(rec.list), len(cells), time.Since(start).Seconds())
	return nil
}

// latencies returns the streams' latencies in ms; failures are +Inf.
func latencies(out []outcome, late bool) []float64 {
	xs := make([]float64, len(out))
	for i, o := range out {
		switch {
		case late:
			xs[i] = o.Late().Seconds() * 1e3
		case o.Err != nil:
			xs[i] = math.Inf(1)
		default:
			xs[i] = o.Latency().Seconds() * 1e3
		}
	}
	return xs
}

// openDuration is the open-loop phases' length summed over the passes:
// half the budget (the set-ups and closed-loop batches take the rest),
// and at least long enough for a reportable hot p99 (1000 samples).
func (b *bench) openDuration() time.Duration {
	d := 0.5 * b.seconds
	if min := 1000/hotRate + 0.5; d < min {
		d = min
	}
	return time.Duration(d * float64(time.Second))
}

// serveMeasure runs servePasses passes, each on a fresh fleet, so every
// median sees the host as the whole run does. Before each pass it
// launches, warms and stops idleSetups more fleets, which only add
// set-up samples. Every response is checked.
func (b *bench) serveMeasure(profile bool, rep *report) (*serveRun, []float64, error) {
	load, err := newServeLoad(b.seed, b.openDuration())
	if err != nil {
		return nil, nil, err
	}
	rec := &recorder{}
	run := &serveRun{counters: map[string]float64{}}
	var setups []float64
	setup := func(loaded bool) (*fleet, error) {
		dir := filepath.Join(b.work, fmt.Sprintf("fleet%d", len(setups)))
		f, s, err := b.setupFleet(dir, profile && loaded, load, rec, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		return f, nil
	}
	for _, ps := range load.passes {
		for i := 0; i < idleSetups; i++ {
			f, err := setup(false)
			if err != nil {
				return nil, nil, err
			}
			if _, _, err := f.stop(); err != nil {
				return nil, nil, err
			}
		}
		f, err := setup(true)
		if err != nil {
			return nil, nil, err
		}
		if err := b.drive(f, load, ps, rec, rep, run); err != nil {
			return nil, nil, err
		}
	}
	return run, setups, checkServed(rec, rep)
}

func runServe(b *bench) (*report, error) {
	rep := newReport()
	run, setups, err := b.serveMeasure(false, rep)
	if err != nil {
		return nil, err
	}
	wall := median(run.coldWalls)
	rep.set("setup_s", median(setups))
	rep.set("wall_s", wall)
	rep.set("cpu_s", median(run.cpus))
	rep.set("peak_rss_mb", median(run.rss))

	hot, cold := latencies(run.hot, false), latencies(run.cold, false)
	late := latencies(append(append([]outcome(nil), run.hot...), run.cold...), true)
	errs := 0
	for _, o := range append(append([]outcome(nil), run.hot...), run.cold...) {
		if o.Err != nil {
			errs++
		}
	}
	var queue, runMs, unacc []float64
	for i, st := range run.statuses {
		queue, runMs = append(queue, st.QueueMs), append(runMs, st.RunMs)
		o := run.cold[i]
		unacc = append(unacc, (o.Done-o.Sent).Seconds()*1e3-st.QueueMs-st.RunMs)
	}
	rep.printf("serve: %d fleet set-ups, %d passes on fresh fleets, open loop %.1f s in all (hot %.0f/s, cold %.0f/s, one connection each), closed loop of %d clients: %d hot batches of %d, %d cold batches of %d",
		len(setups), len(run.cpus), b.openDuration().Seconds(), hotRate, coldRate, closedClients, len(run.closed), hotBatch,
		len(run.coldWalls), len(cnnModels)*3*len(coldBatchSizes))
	rep.printf("  setup_s        %.4f s (median of %d: %.4f)", median(setups), len(setups), setups)
	rep.printf("  wall_s         %.4f s (median of %d cold closed-loop batches: %.4f)", wall, len(run.coldWalls), run.coldWalls)
	rep.printf("  hot_p50_ms     %.4g (n=%d)", median(hot), len(hot))
	rep.printf("  hot_p99_ms     %s", percentile(hot, 0.99))
	rep.printf("  cold_p50_ms    %.4g (n=%d)", median(cold), len(cold))
	rep.printf("  cold_p90_ms    %s", percentile(cold, 0.90))
	rep.printf("  hot_rps        %.1f req/s (closed loop, %d clients, median of %d batches: %.4f s)", hotBatch/median(run.closed),
		closedClients, len(run.closed), run.closed)
	rep.printf("  error_rate     %.4g ratio (%d of %d open-loop requests)", float64(errs)/float64(len(hot)+len(cold)), errs, len(hot)+len(cold))
	rep.printf("  cpu_s          %.4f s (router + 2 replicas over a pass, rusage; median of %d: %.3f)", median(run.cpus), len(run.cpus), run.cpus)
	rep.printf("  peak_rss_mb    %.1f MB (summed over the fleet; median of %d: %.1f)", median(run.rss), len(run.rss), run.rss)
	rep.printf("  loadgen        sent %d, late p50 %.3g ms, late p99 %s", len(late), median(late), percentile(late, 0.99))
	rep.printf("  cold jobs      queue_ms p50 %.3g, run_ms p50 %.3g, unaccounted by serve/cluster p50 %.3g ms",
		median(queue), median(runMs), median(unacc))
	return rep, nil
}

func traceServe(b *bench) (*report, error) {
	rep := newReport()
	// Untraced reference for the tracing overhead: the same cold
	// closed-loop batches on a fleet without profiling.
	load, err := newServeLoad(b.seed, b.openDuration())
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	f, _, err := b.setupFleet(filepath.Join(b.work, "reference"), false, load, rec, rep)
	if err != nil {
		return nil, err
	}
	var ref []float64
	for _, ps := range load.passes {
		ref = append(ref, closedBatch(f.url, ps.coldClosed, coldWindow, rec, rep))
	}
	if _, _, err := f.stop(); err != nil {
		return nil, err
	}

	run, _, err := b.serveMeasure(true, rep)
	if err != nil {
		return nil, err
	}
	c := run.counters
	rep.set("trace.overhead_s", median(run.coldWalls)-median(ref))
	cpu := 0.0
	for _, c := range run.cpus {
		cpu += c
	}
	rep.set("runner.cpu_per_wall", cpu/run.wall)
	rep.set("cache.hits", c["simcache_hits"])
	rep.set("cache.misses", c["simcache_misses"])
	if n := c["simcache_hits"] + c["simcache_misses"]; n > 0 {
		rep.set("cache.hit_ratio", c["simcache_hits"]/n)
	}
	rep.set("serve.jobs_run", c["serve_jobs_run"])
	rep.set("serve.dedup_hits", c["serve_dedup_hits"])
	if c["serve_coalesce_batches"] > 0 {
		rep.set("serve.cells_per_batch", c["serve_coalesce_jobs"]/c["serve_coalesce_batches"])
	}
	rep.set("serve.rejected", c["serve_rejected_full"]+c["serve_rejected_draining"])
	rep.set("cluster.retries", c["cluster_retries"])
	rep.set("cluster.peer_hits", c["serve_peer_hits"])
	if err := attributeProfiles(rep, run.profiles...); err != nil {
		return nil, err
	}
	return rep, b.ladder(rep)
}
