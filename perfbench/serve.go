package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/train"
)

const (
	// serveRate is the open-loop arrival rate at which serve_p50_ms and
	// serve_p99_ms are measured: about a quarter of the server's capacity,
	// so the latencies describe service rather than an overloaded queue,
	// yet busy enough that the processors seldom idle between requests and
	// one phase holds thousands of samples.
	serveRate = 400.0
	// serveCache is the server's LRU bound; the /v1/run population is
	// larger, so one run sees memo hits, store reads after eviction and
	// cold simulations.
	serveCache  = 256
	runPopSize  = 800
	zipfExp     = 1.0
	p99LimitMs  = 250.0
	lateLimitMs = 100.0
	warmup      = 2 * time.Second
	// passRequests is the length of the closed-loop pass.
	passRequests = 1000
	// phaseWindows is how many windows the latency percentiles are taken
	// over.
	phaseWindows = 4
)

// The rate ladder serve_max_rps is read from starts at ladderBase and
// doubles until a step misses the limit; ladderBisect halvings of the last
// bracket then refine it.
const (
	ladderBase   = 200.0
	ladderBisect = 4
	// ladderSteps is about how many steps a climb takes; each step gets
	// that share of 30% of the run.
	ladderSteps = 8
)

// reportURLs are the report endpoints of the mix, in reduced sizes where
// the default is a whole study.
var reportURLs = []string{
	"/v1/fig13?strategy=dp",
	"/v1/fig13?strategy=mp&format=text",
	"/v1/headline",
	"/v1/headline?format=csv",
	"/v1/sens",
	"/v1/sens?format=text",
	"/v1/transformer?workload=BERT-Large&seqlens=128,256&precisions=fp16",
	"/v1/plane?workload=VGG-E&nodes=1,2,4",
	"/v1/plane?workload=BERT-Large&nodes=1&format=csv",
	"/v1/fleet?designs=MC-DLA(B)&pods=2",
	"/v1/fleet?jobs=24&pods=1&format=text",
	"/v1/optimize?designs=MC-DLA(B)&precisions=fp16&gbps=25&memnodes=4,8&dimms=32GB-LRDIMM,128GB-LRDIMM",
	"/v1/optimize?designs=MC-DLA(B)&precisions=fp16&gbps=25&memnodes=4,8&dimms=32GB-LRDIMM,128GB-LRDIMM&surrogate=1",
}

var opsURLs = []string{"/healthz", "/metrics"}

// serveGoldens are the URLs whose bodies are pinned by
// internal/server/testdata.
var serveGoldens = map[string]string{
	"/v1/run?net=VGG-E&design=MC-DLA(B)": "run_vgge_mcdlab",
	"/v1/optimize?designs=MC-DLA(B)&precisions=fp16&gbps=25&memnodes=4,8&dimms=32GB-LRDIMM,128GB-LRDIMM":             "optimize_mcdlab",
	"/v1/optimize?designs=MC-DLA(B)&precisions=fp16&gbps=25&memnodes=4,8&dimms=32GB-LRDIMM,128GB-LRDIMM&surrogate=1": "optimize_surrogate",
	"/v1/fleet?designs=MC-DLA(B)&pods=2": "fleet_mcdlab",
}

// runPoint is one /v1/run design point of the population.
type runPoint struct {
	url string
	p   dse.Point
}

// runPopulation generates the seeded /v1/run population: distinct dse
// design points across designs, workloads, batch, precision, sequence
// length and link, memory-node, DIMM and cDMA axes, each with a response
// format, ordered by popularity rank. The CI golden point is one of them.
func runPopulation(seed uint64) []runPoint {
	rng := rand.New(rand.NewPCG(seed, 0x5e4e))
	designs := []string{"DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)"}
	workloads := []string{"AlexNet", "GoogLeNet", "VGG-E", "ResNet", "RNN-GEMV", "RNN-LSTM-1", "RNN-LSTM-2", "RNN-GRU", "BERT-Large", "GPT-2"}
	pick := func(xs ...string) string { return xs[rng.IntN(len(xs))] }
	seen := map[string]bool{}
	golden := runPoint{url: "/v1/run?net=VGG-E&design=MC-DLA(B)", p: dse.Point{Design: "MC-DLA(B)", Workload: "VGG-E", Batch: 512}}
	pop := []runPoint{golden}
	seen[golden.url] = true
	for len(pop) < runPopSize {
		p := dse.Point{
			Design:   designs[rng.IntN(len(designs))],
			Workload: workloads[rng.IntN(len(workloads))],
			Batch:    []int{256, 512, 1024}[rng.IntN(3)],
		}
		q := url.Values{}
		q.Set("net", p.Workload)
		q.Set("design", p.Design)
		q.Set("batch", strconv.Itoa(p.Batch))
		prec := pick("fp16", "fp16", "mixed", "fp32")
		q.Set("precision", prec)
		p.Precision, _ = train.ParsePrecision(prec) // prec is one of the literals above
		if p.Workload == "BERT-Large" || p.Workload == "GPT-2" {
			// Short sequences keep a cold transformer simulation within a
			// few report requests' time, so the latency tail is set by the
			// mix rather than by which seeds draw the largest points.
			p.SeqLen = []int{128, 256}[rng.IntN(2)]
			q.Set("seqlen", strconv.Itoa(p.SeqLen))
		}
		// MC-DLA(S) is left at its Table II link count: its topology
		// builder panics on any other (`mcdla run -design "MC-DLA(S)"
		// -links 8`), a defect outside the benchmark's scope.
		if l := []int{0, 4, 8}[rng.IntN(3)]; l > 0 && p.Design != "MC-DLA(S)" {
			p.Links = l
			q.Set("links", strconv.Itoa(l))
		}
		if g := []float64{0, 25, 50}[rng.IntN(3)]; g > 0 {
			p.LinkGBps = g
			q.Set("gbps", strconv.FormatFloat(g, 'f', -1, 64))
		}
		if strings.HasPrefix(p.Design, "MC-") {
			if m := []int{0, 2, 4}[rng.IntN(3)]; m > 0 {
				p.MemNodes = m
				q.Set("memnodes", strconv.Itoa(m))
			}
			if d := pick("", "32GB-LRDIMM", "128GB-LRDIMM"); d != "" {
				p.DIMM = d
				q.Set("dimm", d)
			}
		} else if rng.IntN(2) == 0 {
			p.Compress = true
			q.Set("compress", "1")
		}
		if f := pick("json", "json", "json", "json", "text", "csv"); f != "json" {
			q.Set("format", f)
		}
		u := "/v1/run?" + q.Encode()
		if seen[u] {
			continue
		}
		if _, err := p.DesignPoint(); err != nil {
			continue
		}
		seen[u] = true
		pop = append(pop, runPoint{url: u, p: p})
	}
	rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	return pop
}

// serveReq is one scheduled request: when it is due, relative to the start
// of its phase, and what it asks for.
type serveReq struct {
	due   time.Duration
	url   string
	class string // "run", "report" or "ops"
}

// schedule draws the requests of d seconds arriving as a Poisson process
// at rate. The mix is stratified: every block of mixBlock requests holds
// exactly the shares below in a seeded order, so a step of the ladder or a
// seed never gets more heavy report requests than another. /v1/run points
// are drawn by Zipf popularity; report endpoints cycle through a seeded
// order and operational endpoints alternate.
func schedule(rng *rand.Rand, pop []runPoint, rate float64, d time.Duration) []serveReq {
	cum := make([]float64, len(pop))
	total := 0.0
	for i := range pop {
		total += 1 / math.Pow(float64(i+1), zipfExp)
		cum[i] = total
	}
	reports := rng.Perm(len(reportURLs))
	var block []string
	var reqs []serveReq
	at := 0.0
	for n := 0; ; n++ {
		at += rng.ExpFloat64() / rate
		if at >= d.Seconds() {
			return reqs
		}
		if len(block) == 0 {
			block = mixBlock()
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		r := serveReq{due: time.Duration(at * float64(time.Second)), class: block[0]}
		block = block[1:]
		switch r.class {
		case "run":
			i := sort.SearchFloat64s(cum, rng.Float64()*total)
			r.url = pop[min(i, len(pop)-1)].url
		case "report":
			r.url = reportURLs[reports[0]]
			reports = append(reports[1:], reports[0])
		default:
			r.url = opsURLs[n%len(opsURLs)]
		}
		reqs = append(reqs, r)
	}
}

// mixBlock is one block of the request mix: 75% /v1/run, 20% report
// endpoints, 5% operational endpoints.
func mixBlock() []string {
	b := make([]string, 0, 20)
	for i := 0; i < 15; i++ {
		b = append(b, "run")
	}
	for i := 0; i < 4; i++ {
		b = append(b, "report")
	}
	return append(b, "ops")
}

// reqResult is one finished request. Latency runs from when it was due.
type reqResult struct {
	req     serveReq
	dueAt   time.Time
	start   time.Time
	end     time.Time
	late    time.Duration // how late the generator handed it out
	backlog int           // requests due but not yet sent, at hand-out
	status  int
	body    []byte
	err     error
}

func (r reqResult) latencyMs() float64 { return float64(r.end.Sub(r.dueAt)) / 1e6 }

// server is a running `mcdla serve` process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer execs `mcdla serve` on a fresh store and waits for the first
// 200 from /healthz, returning the time from exec to ready.
func startServer(ctx context.Context, e *env, name string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	storeDir := filepath.Join(e.work, "store-"+name)
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(e.bin, "-quiet", "-store", storeDir, "serve", "-cache", strconv.Itoa(serveCache), "-addr", addr)
	cmd.Dir = e.work
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case err := <-s.done:
			return nil, 0, fmt.Errorf("mcdla serve exited before ready: %v: %s", err, lastLine(stderr.String()))
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("mcdla serve not ready after 30 s")
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after ten
// seconds) and returns its peak resident set.
func (s *server) stop() float64 {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	return peakRSSMB(s.cmd)
}

func newClient(nproc int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: nproc,
			MaxConnsPerHost:     nproc,
		},
	}
}

func get(client *http.Client, base, u string) (int, []byte, error) {
	resp, err := client.Get(base + u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// openLoop sends reqs on their schedule from nproc connections. A request
// whose connection is busy waits in the generator's queue, and that wait
// counts in its latency because latency runs from the due time. With
// paced false the requests are sent back to back instead (closed loop).
func openLoop(ctx context.Context, client *http.Client, base string, reqs []serveReq, nproc int, paced bool) []reqResult {
	results := make([]reqResult, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &results[i]
				r.start = time.Now()
				if ctx.Err() != nil {
					r.err, r.end = ctx.Err(), r.start
					continue
				}
				r.status, r.body, r.err = get(client, base, reqs[i].url)
				r.end = time.Now()
			}
		}()
	}
	for i, rq := range reqs {
		results[i].req, results[i].dueAt = rq, start
		if paced {
			results[i].dueAt = start.Add(rq.due)
			if d := time.Until(results[i].dueAt); d > 0 {
				time.Sleep(d)
			}
			results[i].late = time.Since(results[i].dueAt)
		}
		results[i].backlog = len(queue)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return results
}

// bodyChecker holds the first 2xx body of every URL and the pinned goldens.
type bodyChecker struct {
	first   map[string][]byte
	goldens map[string][]byte
}

func newBodyChecker(root string) (*bodyChecker, error) {
	c := &bodyChecker{first: map[string][]byte{}, goldens: map[string][]byte{}}
	for u, name := range serveGoldens {
		data, err := os.ReadFile(filepath.Join(root, "internal", "server", "testdata", name+".golden.json"))
		if err != nil {
			return nil, err
		}
		c.goldens[u] = data
	}
	return c, nil
}

// check counts one operation per request: it fails on a transport error or
// a non-2xx status, and a 2xx body fails when it differs from the golden or
// from the URL's first response.
func (c *bodyChecker) check(o *outcome, r reqResult) {
	switch {
	case r.err != nil:
		o.check(false, fmt.Sprintf("GET %s: %v", r.req.url, r.err))
		return
	case r.status < 200 || r.status > 299:
		o.check(false, fmt.Sprintf("GET %s: status %d: %s", r.req.url, r.status, lastLine(string(r.body))))
		return
	case r.req.class == "ops":
		o.check(true, "")
		return
	}
	if g, ok := c.goldens[r.req.url]; ok {
		o.check(bytes.Equal(r.body, g), "GET "+r.req.url+": body differs from its golden")
		return
	}
	if f, ok := c.first[r.req.url]; ok {
		o.check(bytes.Equal(r.body, f), "GET "+r.req.url+": body differs from its first response")
		return
	}
	c.first[r.req.url] = r.body
	o.check(true, "")
}

// serveRun is everything one serve-mixed run measured.
type serveRun struct {
	setup   []float64
	phase   []reqResult
	phaseAt [2]time.Time
	before  scrape
	after   scrape
	pass    float64
	maxRPS  float64
	rssMB   float64
	pop     []runPoint
}

// warmServer starts a server, checks the golden URLs, and warms it up: the
// first report requests pay one-time grid simulations that a long-running
// service pays once, not per request, so every report URL is asked once
// and then the open loop runs for the warm-up time.
func warmServer(ctx context.Context, e *env, o *outcome, c *bodyChecker, client *http.Client, rng *rand.Rand, pop []runPoint, name string) (*server, error) {
	s, _, err := startServer(ctx, e, name)
	if err != nil {
		return nil, err
	}
	golden := make([]string, 0, len(serveGoldens))
	for u := range serveGoldens {
		golden = append(golden, u)
	}
	sort.Strings(golden)
	for _, u := range append(golden, reportURLs...) {
		st, body, err := get(client, s.base, u)
		c.check(o, reqResult{req: serveReq{url: u, class: "report"}, status: st, body: body, err: err})
	}
	for _, r := range openLoop(ctx, client, s.base, schedule(rng, pop, serveRate, warmup), e.nproc, true) {
		c.check(o, r)
	}
	return s, nil
}

// driveServe measures exec-to-ready over fresh servers and, on one warm
// server, runs the open loop at serveRate. Unless short, it then replays the
// same requests back to back and, on a second warm server, climbs the rate
// ladder: overload makes the heap peak wherever the climb happens to stop,
// which the first server's peak_rss_mb must not see.
func driveServe(ctx context.Context, e *env, o *outcome, short bool) (*serveRun, error) {
	// The generator only waits on the network; one P keeps its scheduler
	// from competing with the server for the machine's processors.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := &serveRun{pop: runPopulation(e.seed)}
	checker, err := newBodyChecker(e.root)
	if err != nil {
		return nil, err
	}
	// setup_s samples three fresh servers at the start, after the measured
	// phase and at the end, so one stall of the machine cannot set it.
	ready := func() error {
		for i := 0; i < 3; i++ {
			s, d, err := startServer(ctx, e, fmt.Sprintf("setup%d", len(run.setup)))
			if err != nil {
				return err
			}
			s.stop()
			run.setup = append(run.setup, d.Seconds())
		}
		return nil
	}
	if err := ready(); err != nil {
		return nil, err
	}
	client := newClient(e.nproc)
	rng := rand.New(rand.NewPCG(e.seed, 0x10ad))
	s, err := warmServer(ctx, e, o, checker, client, rng, run.pop, "main")
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	reqs := schedule(rng, run.pop, serveRate, time.Duration(e.seconds*0.4*float64(time.Second)))
	if run.before, err = scrapeServer(client, s.base); err != nil {
		return nil, err
	}
	run.phaseAt[0] = time.Now()
	run.phase = openLoop(ctx, client, s.base, reqs, e.nproc, true)
	run.phaseAt[1] = time.Now()
	if run.after, err = scrapeServer(client, s.base); err != nil {
		return nil, err
	}
	for _, r := range run.phase {
		checker.check(o, r)
	}
	if err := ready(); err != nil {
		return nil, err
	}
	if short {
		run.rssMB = s.stop()
		s = nil
		return run, nil
	}
	// A pass serves the first passRequests measured requests back to back
	// on one connection, so it sums service times instead of racing the
	// generator for the processors.
	var passes []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		for _, r := range openLoop(ctx, client, s.base, reqs[:min(passRequests, len(reqs))], 1, false) {
			checker.check(o, r)
		}
		passes = append(passes, time.Since(start).Seconds())
	}
	run.pass = median(passes)
	run.rssMB = s.stop()
	if s, err = warmServer(ctx, e, o, checker, client, rng, run.pop, "ladder"); err != nil {
		return nil, err
	}
	step := time.Duration(e.seconds * 0.3 / ladderSteps * float64(time.Second))
	run.maxRPS = climbLadder(ctx, e, o, checker, client, s.base, rng, run.pop, step)
	s.stop()
	s = nil
	return run, ready()
}

// runServe measures the serve-mixed end-to-end metrics.
func runServe(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	run, err := driveServe(ctx, e, o, false)
	if err != nil {
		return nil, err
	}
	var lat, late []float64
	for _, r := range run.phase {
		lat = append(lat, r.latencyMs())
		late = append(late, float64(r.late)/1e6)
	}
	lateP99 := quantile(late, 0.99)
	o.check(lateP99 <= lateLimitMs, fmt.Sprintf("load generator ran %.1f ms late at p99 (limit %.0f ms): run invalid", lateP99, lateLimitMs))
	fmt.Printf("setup_s       %s\n", describe(run.setup, "s"))
	fmt.Printf("latency @%.0f/s %s\n", serveRate, describe(lat, "ms"))
	fmt.Printf("generator lateness %s\n", describe(late, "ms"))
	fmt.Printf("closed-loop pass of %d requests: %.3f s; max rate %.0f/s; peak RSS %.1f MB\n", len(run.phase), run.pass, run.maxRPS, run.rssMB)
	m := o.metrics
	m["setup_s"] = median(run.setup)
	m["pass_s"] = run.pass
	m["peak_rss_mb"] = run.rssMB
	m["serve_p50_ms"] = windowed(run.phase, 0.5)
	m["serve_p99_ms"] = windowed(run.phase, 0.99)
	m["serve_max_rps"] = run.maxRPS
	m["ok_ratio"] = okRatio(o)
	return o, nil
}

// windowed splits the measured phase into phaseWindows consecutive windows
// of about 1,200 requests each and returns the median over the windows of
// each window's q-quantile latency, so a stall of the machine that spans
// less than half the phase moves the figure by at most one window.
func windowed(res []reqResult, q float64) float64 {
	var vals []float64
	for w := 0; w < phaseWindows; w++ {
		var lat []float64
		for _, r := range res[w*len(res)/phaseWindows : (w+1)*len(res)/phaseWindows] {
			lat = append(lat, r.latencyMs())
		}
		vals = append(vals, quantile(lat, q))
	}
	fmt.Printf("p%.0f per window: %.4g ms\n", 100*q, vals)
	return median(vals)
}

// scrape is the server's own accounting at one instant: handler seconds
// and counts per route from /metrics, cache counters from /healthz.
type scrape struct {
	sum, count                         map[string]float64
	hits, misses, simulated, storeHits float64
}

func scrapeServer(client *http.Client, base string) (scrape, error) {
	s := scrape{sum: map[string]float64{}, count: map[string]float64{}}
	st, body, err := get(client, base, "/metrics")
	if err != nil || st != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: status %d: %v", st, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		for suffix, into := range map[string]map[string]float64{"_sum": s.sum, "_count": s.count} {
			prefix := "mcdla_request_seconds" + suffix + `{route="`
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			route, val, ok := strings.Cut(strings.TrimPrefix(line, prefix), `"} `)
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return s, fmt.Errorf("/metrics: %q: %v", line, err)
			}
			into[route] = v
		}
	}
	st, body, err = get(client, base, "/healthz")
	if err != nil || st != http.StatusOK {
		return s, fmt.Errorf("GET /healthz: status %d: %v", st, err)
	}
	var h struct {
		Cache struct {
			Hits      float64 `json:"hits"`
			Misses    float64 `json:"misses"`
			Simulated float64 `json:"simulated"`
			StoreHits float64 `json:"store_hits"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return s, fmt.Errorf("/healthz: %v", err)
	}
	s.hits, s.misses, s.simulated, s.storeHits = h.Cache.Hits, h.Cache.Misses, h.Cache.Simulated, h.Cache.StoreHits
	return s, nil
}

// climbLadder returns the highest rate at which an open-loop step meets
// the limit: every request succeeds, p99 latency is at most p99LimitMs, and
// the backlog does not grow — its least-squares growth over the step stays
// within 5% of the step's arrivals. A rate misses when two tries miss.
func climbLadder(ctx context.Context, e *env, o *outcome, checker *bodyChecker, client *http.Client, base string, rng *rand.Rand, pop []runPoint, step time.Duration) float64 {
	try := func(rate float64) bool {
		res := openLoop(ctx, client, base, schedule(rng, pop, rate, step), e.nproc, true)
		ok := len(res) > 1
		var lat []float64
		for _, r := range res {
			checker.check(o, r)
			ok = ok && r.err == nil && r.status/100 == 2
			lat = append(lat, r.latencyMs())
		}
		if !ok {
			return false
		}
		growth := backlogGrowth(res) * step.Seconds()
		p99 := quantile(lat, 0.99)
		pass := p99 <= p99LimitMs && growth <= 0.05*float64(len(res))
		fmt.Printf("ladder %6.0f/s: n=%d p99 %.1f ms, backlog growth %.1f: %v\n", rate, len(res), p99, growth, pass)
		return pass
	}
	// A step that misses is tried once more, so one stall of the machine
	// does not end the climb.
	meets := func(rate float64) bool { return try(rate) || try(rate) }
	lo, hi := 0.0, ladderBase
	for meets(hi) {
		lo, hi = hi, 2*hi
	}
	if lo == 0 {
		return 0
	}
	for i := 0; i < ladderBisect; i++ {
		mid := (lo + hi) / 2
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// backlogGrowth is the least-squares slope, in requests per second, of the
// generator's backlog over the hand-out times of a step.
func backlogGrowth(res []reqResult) float64 {
	t0 := res[0].dueAt
	var n, sx, sy, sxx, sxy float64
	for _, r := range res {
		x, y := r.dueAt.Sub(t0).Seconds(), float64(r.backlog)
		n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
