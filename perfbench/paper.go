package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/fleet"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
)

// paperSections are the sections of `mcdla all`, in its order, each with
// the default-args golden files it must equal; transformer and plane have
// none and are checked against a -parallel 1 run of the same subcommand.
var paperSections = []struct {
	name    string
	goldens []string
}{
	{"config", []string{"config"}},
	{"networks", []string{"networks"}},
	{"fig2", []string{"fig2"}},
	{"fig9", []string{"fig9"}},
	{"fig11", []string{"fig11_dp", "fig11_mp"}},
	{"fig12", []string{"fig12"}},
	{"fig13", []string{"fig13_dp", "fig13_mp"}},
	{"fig14", []string{"fig14"}},
	{"tab4", []string{"tab4"}},
	{"headline", []string{"headline"}},
	{"sens", []string{"sens"}},
	{"scale", []string{"scale"}},
	{"explore", []string{"explore"}},
	{"transformer", nil},
	{"plane", nil},
	{"optimize", []string{"optimize"}},
	{"fleet", []string{"fleet_default"}},
}

// paperExpected reads the expected text of every section: goldens from
// cmd/mcdla/testdata, and a -parallel 1 reference for the two without one.
func paperExpected(ctx context.Context, e *env) (map[string]string, error) {
	want := map[string]string{}
	for _, s := range paperSections {
		if s.goldens == nil {
			r, err := runMcdla(ctx, e, "-quiet", "-parallel", "1", s.name)
			if err != nil {
				return nil, err
			}
			want[s.name] = string(r.stdout)
			continue
		}
		var b strings.Builder
		for _, g := range s.goldens {
			data, err := os.ReadFile(filepath.Join(e.root, "cmd", "mcdla", "testdata", g+".golden"))
			if err != nil {
				return nil, err
			}
			b.Write(data)
		}
		want[s.name] = b.String()
	}
	return want, nil
}

var bannerRE = regexp.MustCompile(`\n================ (\S+) ================\n`)

// checkPaper splits an `all` output at its section banners and counts one
// checked output per section; a missing or extra section is a mismatch.
func checkPaper(o *outcome, out string, want map[string]string) {
	got := map[string]string{}
	locs := bannerRE.FindAllStringSubmatchIndex(out, -1)
	for i, l := range locs {
		end := len(out)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		got[out[l[2]:l[3]]] = out[l[1]:end]
	}
	for _, s := range paperSections {
		o.check(got[s.name] == want[s.name], "all: section "+s.name)
	}
	if len(got) != len(paperSections) {
		o.check(false, fmt.Sprintf("all: %d sections, want %d", len(got), len(paperSections)))
	}
}

// runPaper times fresh `mcdla -quiet all` processes with no store until the
// time budget is spent, checking every section of every pass.
func runPaper(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	want, err := paperExpected(ctx, e)
	if err != nil {
		return nil, err
	}
	err = runBatch(ctx, e, o, want["config"], func() (float64, float64, error) {
		r, err := runMcdla(ctx, e, "-quiet", "-parallel", fmt.Sprint(e.nproc), "all")
		if err != nil {
			return 0, 0, err
		}
		checkPaper(o, string(r.stdout), want)
		return r.wall.Seconds(), r.rssMB, nil
	})
	return o, err
}

// paperStep is one generator call of `mcdla all` and the reports it builds.
type paperStep struct {
	name string
	gen  func(ctx context.Context) ([]*report.Report, error)
}

func one(r *report.Report) []*report.Report { return []*report.Report{r} }

// paperSteps is the generator sequence of `mcdla all`, called in-process.
func paperSteps() []paperStep {
	fig11 := func(s train.Strategy) func(context.Context) ([]*report.Report, error) {
		return func(ctx context.Context) ([]*report.Report, error) {
			rows, err := experiments.Fig11(ctx, s)
			return one(experiments.Fig11Report(rows, s)), err
		}
	}
	fig13 := func(s train.Strategy) func(context.Context) ([]*report.Report, error) {
		return func(ctx context.Context) ([]*report.Report, error) {
			rows, sp, err := experiments.Fig13(ctx, s)
			return one(experiments.Fig13Report(rows, sp, s)), err
		}
	}
	return []paperStep{
		{"config", func(context.Context) ([]*report.Report, error) { return one(experiments.ConfigReport()), nil }},
		{"networks", func(context.Context) ([]*report.Report, error) { return one(experiments.NetworksReport()), nil }},
		{"fig2", func(ctx context.Context) ([]*report.Report, error) {
			rows, err := experiments.Fig2(ctx)
			return one(experiments.Fig2Report(rows)), err
		}},
		{"fig9", func(context.Context) ([]*report.Report, error) {
			return one(experiments.Fig9Report(experiments.Fig9())), nil
		}},
		{"fig11", func(ctx context.Context) ([]*report.Report, error) {
			dp, err := fig11(train.DataParallel)(ctx)
			if err != nil {
				return nil, err
			}
			mp, err := fig11(train.ModelParallel)(ctx)
			return append(dp, mp...), err
		}},
		{"fig12", func(ctx context.Context) ([]*report.Report, error) {
			rows, err := experiments.Fig12(ctx)
			return one(experiments.Fig12Report(rows)), err
		}},
		{"fig13", func(ctx context.Context) ([]*report.Report, error) {
			dp, err := fig13(train.DataParallel)(ctx)
			if err != nil {
				return nil, err
			}
			mp, err := fig13(train.ModelParallel)(ctx)
			return append(dp, mp...), err
		}},
		{"fig14", func(ctx context.Context) ([]*report.Report, error) {
			rows, err := experiments.Fig14(ctx)
			return one(experiments.Fig14Report(rows)), err
		}},
		{"tab4", func(context.Context) ([]*report.Report, error) { return one(experiments.Table4Report()), nil }},
		{"headline", func(ctx context.Context) ([]*report.Report, error) {
			h, err := experiments.RunHeadline(ctx)
			return one(experiments.HeadlineReport(h)), err
		}},
		{"sens", func(ctx context.Context) ([]*report.Report, error) {
			rows, err := experiments.Sensitivity(ctx)
			return one(experiments.SensitivityReport(rows)), err
		}},
		{"scale", func(ctx context.Context) ([]*report.Report, error) {
			rows, err := experiments.Scalability(ctx)
			return one(experiments.ScalabilityReport(rows)), err
		}},
		{"explore", func(ctx context.Context) ([]*report.Report, error) {
			rows, err := experiments.Explore(ctx, []int{4, 6, 8, 12}, []float64{25, 50, 100})
			return one(experiments.ExploreReport(rows)), err
		}},
		{"transformer", func(ctx context.Context) ([]*report.Report, error) {
			rows, err := experiments.TransformerSweep(ctx, nil, nil, nil)
			if err != nil {
				return nil, err
			}
			cRows, err := experiments.AttentionCompress(ctx)
			return one(experiments.TransformerStudyReport(rows, cRows)), err
		}},
		{"plane", func(ctx context.Context) ([]*report.Report, error) {
			pts, err := experiments.ScaleOutRows(ctx, "VGG-E", []int{1, 2, 4, 8, 16}, false)
			return one(experiments.ScaleOutReport("VGG-E", pts, false)), err
		}},
		{"optimize", func(ctx context.Context) ([]*report.Report, error) {
			res, err := experiments.Optimize(ctx, experiments.DefaultOptimizeSpace(), dse.Options{Search: dse.Grid, Objective: dse.PerfPerDollar})
			return one(experiments.OptimizeReport(res)), err
		}},
		{"fleet", func(ctx context.Context) ([]*report.Report, error) {
			clusters, err := experiments.FleetClusters(experiments.FleetPods, nil)
			if err != nil {
				return nil, err
			}
			res, err := experiments.Fleet(ctx, fleet.DefaultTrace(), clusters)
			return one(experiments.FleetReport(res)), err
		}},
	}
}

// inProcessPaper runs the `all` generator sequence on a fresh engine and
// renders it as `all` prints it, with a span around each generator call
// and each render when t is non-nil. It returns the text and the root
// span's id.
func inProcessPaper(ctx context.Context, e *env, t *tracer) (string, int, error) {
	experiments.SetOptions(runner.Options{Parallelism: e.nproc})
	root := t.begin("pass", 0, "paper-cold")
	var b strings.Builder
	for _, st := range paperSteps() {
		id := t.begin("experiments."+st.name, root, st.name)
		reps, err := st.gen(ctx)
		t.end(id)
		if err != nil {
			return "", 0, fmt.Errorf("%s: %v", st.name, err)
		}
		fmt.Fprintf(&b, "\n================ %s ================\n", st.name)
		for _, r := range reps {
			id := t.begin("report.Render", root, st.name)
			out, err := report.Render(r, report.FormatText)
			t.end(id)
			if err != nil {
				return "", 0, fmt.Errorf("%s: render: %v", st.name, err)
			}
			b.WriteString(out)
		}
	}
	t.end(root)
	return b.String(), root, nil
}

// progressJobs installs a progress hook that collects every job the
// engine finishes, and returns the set and a function removing the hook.
func progressJobs() (*jobSet, func()) {
	var mu sync.Mutex
	set := &jobSet{}
	experiments.SetProgress(func(u runner.Update) {
		mu.Lock()
		defer mu.Unlock()
		set.add(u.Job)
	})
	return set, func() { experiments.SetProgress(nil) }
}

// tracePaper runs the `all` sequence in-process, alternating untraced and
// traced passes to measure the tracing overhead, then replays the distinct
// jobs of the pass through the engine layers.
func tracePaper(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{metrics: zeroLayers()}
	want, err := paperExpected(ctx, e)
	if err != nil {
		return nil, err
	}
	// Warm-up: the first pass pays lazy package set-up that a fresh mcdla
	// process pays too but that the pass-to-pass comparison must not see.
	if _, _, err := inProcessPaper(ctx, e, nil); err != nil {
		return nil, err
	}
	var plain, traced []float64
	var t *tracer
	var root int
	var jobs *jobSet
	var stats runner.CacheStats
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second) / 2))
	for len(plain) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		out, _, err := inProcessPaper(ctx, e, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(start).Seconds())
		checkPaper(o, out, want)

		t = newTracer()
		var done func()
		jobs, done = progressJobs()
		start = time.Now()
		out, root, err = inProcessPaper(ctx, e, t)
		traced = append(traced, time.Since(start).Seconds())
		done()
		if err != nil {
			return nil, err
		}
		stats = experiments.EngineStats()
		checkPaper(o, out, want)
	}
	passSpans := append([]span(nil), t.spans...)
	m := o.metrics
	ls := layerStats(passSpans)
	m["experiments.busy_s"] = ls["experiments"].self
	m["report.busy_s"] = ls["report"].self
	m["trace.coverage"] = coverage(passSpans, root)
	m["trace.overhead_s"] = median(traced) - median(plain)
	m["runner.jobs"] = float64(jobs.total)
	m["runner.simulated"] = float64(stats.Simulated)
	m["runner.memo_hit_ratio"] = float64(stats.Hits) / float64(stats.Hits+stats.Misses)

	rroot := t.begin("replay", 0, "paper-cold")
	traffic, err := replay(t, rroot, jobs.jobs)
	t.end(rroot)
	if err != nil {
		return nil, err
	}
	replaySpans := t.spans[len(passSpans):]
	engineLayers(m, replaySpans[1:], traffic)

	path, err := writeSpans(e, "paper-cold", t.spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("untraced in-process pass: %s\n", describe(plain, "s"))
	fmt.Printf("traced in-process pass:   %s\n", describe(traced, "s"))
	fmt.Printf("tracing overhead: %.4f s per pass; spans cover %.1f%% of the pass\n", m["trace.overhead_s"], 100*m["trace.coverage"])
	printLayers(os.Stdout, "pass: self time per layer", passSpans, passSpans[root-1].dur())
	printLayers(os.Stdout, fmt.Sprintf("replay of the pass's %d distinct jobs: self time per layer", len(jobs.jobs)), replaySpans, replaySpans[0].dur())
	fmt.Printf("spans: %s\n", path)
	return o, nil
}
