package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/store"
)

// serveJob is a distinct /v1/run point of a run with its simulation.
type serveJob struct {
	rp  runPoint
	job runner.Job
	res core.Result
}

// distinctRunJobs lowers the run's distinct /v1/run URLs to runner jobs and
// simulates each once, untimed, for the store and render measurements.
func distinctRunJobs(ctx context.Context, run *serveRun) ([]serveJob, error) {
	byURL := map[string]runPoint{}
	for _, rp := range run.pop {
		byURL[rp.url] = rp
	}
	seen := map[string]bool{}
	var out []serveJob
	var jobs []runner.Job
	for _, r := range run.phase {
		rp, ok := byURL[r.req.url]
		if !ok || seen[rp.url] {
			continue
		}
		seen[rp.url] = true
		j, err := rp.p.Job()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", rp.url, err)
		}
		out = append(out, serveJob{rp: rp, job: j})
		jobs = append(jobs, j)
	}
	res, err := runner.New(runner.Options{}).Run(ctx, jobs, nil)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].res = res[i]
	}
	return out, nil
}

// storeAndRender saves and loads every job's result in a fresh store and
// builds and renders its run report in each response format, with a span
// per call when t is non-nil. The experiments engine is warm, as the
// server's is for a repeated point, so the report spans time the report
// layers rather than simulation. It returns the root span's id.
func storeAndRender(ctx context.Context, e *env, o *outcome, t *tracer, jobs []serveJob, pass int) (int, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("inproc-store-%d", pass))
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	root := t.begin("pass", 0, "serve-mixed")
	defer t.end(root)
	for _, sj := range jobs {
		id := t.begin("store.Save", root, sj.rp.url)
		err := st.SaveResult(sj.job, sj.res)
		t.end(id)
		if err != nil {
			return 0, err
		}
	}
	for _, sj := range jobs {
		id := t.begin("store.Load", root, sj.rp.url)
		got, ok, err := st.LoadResult(sj.job)
		t.end(id)
		if err != nil {
			return 0, err
		}
		o.check(ok && got == sj.res, "store round trip of "+sj.rp.url)
	}
	for _, sj := range jobs {
		p := sj.rp.p
		id := t.begin("experiments.RunReportFor", root, sj.rp.url)
		rep, err := experiments.RunReportFor(ctx, sj.job.Design, p.Workload, p.Strategy, p.Batch, p.SeqLen, p.Precision, p.Workers)
		t.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", sj.rp.url, err)
		}
		for _, f := range []report.Format{report.FormatJSON, report.FormatCSV, report.FormatText} {
			id := t.begin("report.Render."+string(f), root, sj.rp.url)
			_, err := report.Render(rep, f)
			t.end(id)
			if err != nil {
				return 0, err
			}
		}
	}
	return root, nil
}

// traceServe runs the serve-mixed open loop with a client span per request
// and reads the server's own accounting around it; store, render and
// engine costs come from in-process calls over the run's distinct /v1/run
// jobs.
func traceServe(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{metrics: zeroLayers()}
	run, err := driveServe(ctx, e, o, true)
	if err != nil {
		return nil, err
	}
	m := o.metrics
	t := newTracer()
	phase := t.begin("phase", 0, "serve-mixed")
	var lat, late []float64
	for _, r := range run.phase {
		t.add("http."+r.req.class, phase, r.req.url, r.start, r.end)
		lat = append(lat, r.latencyMs())
		late = append(late, float64(r.late)/1e6)
	}
	t.end(phase)
	sp := &t.spans[phase-1]
	sp.Start, sp.End = run.phaseAt[0].Sub(t.t0).Seconds(), run.phaseAt[1].Sub(t.t0).Seconds()

	d := func(route string) (sum, count float64) {
		return run.after.sum[route] - run.before.sum[route], run.after.count[route] - run.before.count[route]
	}
	var repSum, repCount, allSum, allCount float64
	for route := range run.after.count {
		s, c := d(route)
		allSum, allCount = allSum+s, allCount+c
		if strings.HasPrefix(route, "/v1/") && route != "/v1/run" {
			repSum, repCount = repSum+s, repCount+c
		}
	}
	if s, c := d("/v1/run"); c > 0 {
		m["server.run_ms"] = 1000 * s / c
	}
	if repCount > 0 {
		m["server.report_ms"] = 1000 * repSum / repCount
	}
	if allCount > 0 {
		m["server.wait_ms"] = mean(lat) - 1000*allSum/allCount
	}
	hits, misses := run.after.hits-run.before.hits, run.after.misses-run.before.misses
	simulated, storeHits := run.after.simulated-run.before.simulated, run.after.storeHits-run.before.storeHits
	m["runner.jobs"] = hits + misses
	m["runner.simulated"] = simulated
	if hits+misses > 0 {
		m["runner.memo_hit_ratio"] = hits / (hits + misses)
	}
	if storeHits+simulated > 0 {
		m["store.hit_ratio"] = storeHits / (storeHits + simulated)
	}
	m["loadgen.late_ms"] = quantile(late, 0.99)
	m["trace.coverage"] = coverage(t.spans, phase)

	jobs, err := distinctRunJobs(ctx, run)
	if err != nil {
		return nil, err
	}
	experiments.SetOptions(runner.Options{Parallelism: e.nproc})
	if _, err := storeAndRender(ctx, e, o, nil, jobs, -1); err != nil {
		return nil, err
	}
	var plain, traced []float64
	var it *tracer
	var root int
	deadline := time.Now().Add(time.Duration(e.seconds * 0.3 * float64(time.Second)))
	for pass := 0; pass < 6 || time.Now().Before(deadline); pass += 2 {
		start := time.Now()
		if _, err := storeAndRender(ctx, e, o, nil, jobs, pass); err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(start).Seconds())
		it = &tracer{t0: t.t0}
		start = time.Now()
		if root, err = storeAndRender(ctx, e, o, it, jobs, pass+1); err != nil {
			return nil, err
		}
		traced = append(traced, time.Since(start).Seconds())
	}
	m["trace.overhead_s"] = median(traced) - median(plain)
	calls := map[string]float64{}
	busy := map[string]float64{}
	for _, s := range it.spans {
		calls[s.Name]++
		busy[s.Name] += s.dur()
	}
	perCall := func(name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return 1000 * busy[name] / calls[name]
	}
	m["store.save_ms"] = perCall("store.Save")
	m["store.load_ms"] = perCall("store.Load")
	m["report.json_ms"] = perCall("report.Render.json")
	m["report.csv_ms"] = perCall("report.Render.csv")
	m["report.text_ms"] = perCall("report.Render.text")
	ls := layerStats(it.spans)
	m["experiments.busy_s"] = ls["experiments"].self
	m["report.busy_s"] = ls["report"].self

	n := len(it.spans)
	rroot := it.begin("replay", 0, "serve-mixed")
	rjobs := make([]runner.Job, len(jobs))
	for i, sj := range jobs {
		rjobs[i] = sj.job
	}
	traffic, err := replay(it, rroot, rjobs)
	it.end(rroot)
	if err != nil {
		return nil, err
	}
	replaySpans := it.spans[n:]
	engineLayers(m, replaySpans[1:], traffic)

	all := append(append([]span(nil), t.spans...), renumber(it.spans, len(t.spans))...)
	path, err := writeSpans(e, "serve-mixed", all)
	if err != nil {
		return nil, err
	}
	fmt.Printf("latency @%.0f/s %s\n", serveRate, describe(lat, "ms"))
	fmt.Printf("generator lateness %s\n", describe(late, "ms"))
	fmt.Printf("server handler means: run %.3f ms, report %.3f ms; client wait beyond handler %.3f ms\n",
		m["server.run_ms"], m["server.report_ms"], m["server.wait_ms"])
	fmt.Printf("memo hits %.0f / misses %.0f, store hits %.0f, simulated %.0f\n", hits, misses, storeHits, simulated)
	fmt.Printf("client spans cover %.1f%% of the phase\n", 100*m["trace.coverage"])
	printLayers(os.Stdout, "open-loop phase: client time per request class", t.spans, t.spans[phase-1].dur())
	fmt.Printf("in-process store and render over %d distinct /v1/run jobs: untraced %s; traced %s; overhead %.4f s\n",
		len(jobs), describe(plain, "s"), describe(traced, "s"), m["trace.overhead_s"])
	printLayers(os.Stdout, "in-process pass: self time per layer", it.spans[:n], it.spans[root-1].dur())
	printLayers(os.Stdout, "replay of the distinct jobs: self time per layer", replaySpans, replaySpans[0].dur())
	fmt.Printf("spans: %s\n", path)
	return o, nil
}

// renumber shifts span ids so spans from a second tracer can follow n
// spans of the first in one file.
func renumber(spans []span, n int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += n
		if s.Parent != 0 {
			s.Parent += n
		}
		out[i] = s
	}
	return out
}
