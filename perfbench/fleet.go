package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/experiments"
	"github.com/memcentric/mcdla/internal/fleet"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/scaleout"
	"github.com/memcentric/mcdla/internal/units"
)

const (
	// fleetJobs is the trace length: large enough that the scheduler's
	// super-linear growth dominates the pass, small enough for many passes.
	fleetJobs = 4000
	fleetPods = 2
)

// planeWorkloads and planeNodes are the scale-out sweep of each pass.
var (
	planeWorkloads = []string{"GPT-2", "BERT-Large"}
	planeNodes     = []int{1, 2, 4, 8, 16, 32}
)

// fleetShapes is the menu of job shapes a trace draws from. It varies
// workload, batch, sequence length, precision and device count, and is
// the same for every seed, so seeds change which jobs arrive when but not
// how much work the trace holds.
var fleetShapes = func() []fleetShape {
	workloads := []string{"AlexNet", "GoogLeNet", "VGG-E", "ResNet", "RNN-GEMV", "RNN-LSTM-1", "RNN-LSTM-2", "RNN-GRU", "BERT-Large", "GPT-2"}
	precisions := []string{"fp16", "mixed", "fp32"}
	var shapes []fleetShape
	for i := 0; i < 24; i++ {
		s := fleetShape{
			workload:  workloads[i%len(workloads)],
			precision: precisions[(i/2)%3],
			batch:     []int{256, 512, 1024}[i%3],
			devices:   []int{2, 4, 8}[(i/3)%3],
			iters:     300 + 100*(i%7),
		}
		if s.workload == "BERT-Large" || s.workload == "GPT-2" {
			s.seqlen = []int{1024, 512, 256, 128}[(i/10)%4]
			s.iters /= 4
		}
		shapes = append(shapes, s)
	}
	return shapes
}()

type fleetShape struct {
	workload, precision string
	batch, devices      int
	seqlen, iters       int
}

// fleetTraceCSV generates the seeded job trace mcdla fleet reads: every
// block of len(fleetShapes) jobs holds each shape once in a seeded order,
// with Poisson arrivals and seeded iteration counts and deadlines.
func fleetTraceCSV(seed uint64) string {
	rng := rand.New(rand.NewPCG(seed, 0xf1ee7))
	var b strings.Builder
	b.WriteString("name,workload,arrival_s,iters,devices,batch,seqlen,precision,strategy,deadline_s\n")
	arrival := 0.0
	var block []int
	for i := 0; i < fleetJobs; i++ {
		if len(block) == 0 {
			block = rng.Perm(len(fleetShapes))
		}
		s := fleetShapes[block[0]]
		block = block[1:]
		arrival += rng.ExpFloat64() * 30
		deadline := ""
		if rng.IntN(5) == 0 {
			deadline = fmt.Sprintf("%.0f", arrival+1800+rng.Float64()*7200)
		}
		iters := s.iters/2 + rng.IntN(s.iters)
		fmt.Fprintf(&b, "job%d,%s,%.3f,%d,%d,%d,%d,%s,dp,%s\n",
			i, s.workload, arrival, iters, s.devices, s.batch, s.seqlen, s.precision, deadline)
	}
	return b.String()
}

// fleetCommands are the processes of one pass: the fleet run, then one
// plane sweep per workload.
func fleetCommands(tracePath string, parallel int) [][]string {
	p := fmt.Sprint(parallel)
	cmds := [][]string{{"-quiet", "-parallel", p, "fleet", "-trace", tracePath, "-pods", fmt.Sprint(fleetPods)}}
	for _, w := range planeWorkloads {
		cmds = append(cmds, []string{"-quiet", "-parallel", p, "plane", "-workload", w, "-nodes", nodesCSV()})
	}
	return cmds
}

func nodesCSV() string {
	s := make([]string, len(planeNodes))
	for i, n := range planeNodes {
		s[i] = fmt.Sprint(n)
	}
	return strings.Join(s, ",")
}

// fleetSetup writes the seeded trace and takes the -parallel 1 reference
// output of every command of a pass.
func fleetSetup(ctx context.Context, e *env) (tracePath string, want []string, err error) {
	tracePath = filepath.Join(e.work, "fleet-trace.csv")
	if err := os.WriteFile(tracePath, []byte(fleetTraceCSV(e.seed)), 0o644); err != nil {
		return "", nil, err
	}
	for _, args := range fleetCommands(tracePath, 1) {
		r, err := runMcdla(ctx, e, args...)
		if err != nil {
			return "", nil, err
		}
		want = append(want, string(r.stdout))
	}
	return tracePath, want, nil
}

// runFleet times passes of a fleet run plus the plane sweeps, each output
// checked against the -parallel 1 reference.
func runFleet(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	tracePath, want, err := fleetSetup(ctx, e)
	if err != nil {
		return nil, err
	}
	config, err := os.ReadFile(filepath.Join(e.root, "cmd", "mcdla", "testdata", "config.golden"))
	if err != nil {
		return nil, err
	}
	err = runBatch(ctx, e, o, string(config), func() (float64, float64, error) {
		wall, peak := 0.0, 0.0
		for i, args := range fleetCommands(tracePath, e.nproc) {
			r, err := runMcdla(ctx, e, args...)
			if err != nil {
				return 0, 0, err
			}
			o.check(string(r.stdout) == want[i], "output differs from the -parallel 1 reference: mcdla "+strings.Join(args, " "))
			wall += r.wall.Seconds()
			peak = max(peak, r.rssMB)
		}
		return wall, peak, nil
	})
	return o, err
}

// inProcessFleet runs one pass in-process: fleet.Run per cluster with a
// timed simulator, then each plane sweep one scaleout simulation at a
// time. It returns the fleet and plane texts as the CLI prints them.
func inProcessFleet(ctx context.Context, e *env, t *tracer, traceCSV []byte, jobs *jobSet) ([]string, *fleetCounts, error) {
	root := t.begin("pass", 0, "scaleout-fleet")
	defer t.end(root)
	counts := &fleetCounts{}
	engine := runner.New(runner.Options{Parallelism: e.nproc})

	fid := t.begin("experiments.Fleet", root, "fleet")
	id := t.begin("fleet.ParseTrace", fid, "fleet")
	tr, err := fleet.ParseTrace(traceCSV)
	t.end(id)
	if err != nil {
		return nil, nil, err
	}
	clusters, err := experiments.FleetClusters(fleetPods, nil)
	if err != nil {
		return nil, nil, err
	}
	var results []*fleet.Result
	for _, c := range clusters {
		run := t.begin("fleet.Run", fid, c.Name)
		sim := func(ctx context.Context, grid []runner.Job) ([]core.Result, error) {
			id := t.begin("runner.Run", run, c.Name)
			defer t.end(id)
			if jobs != nil {
				for _, j := range grid {
					jobs.add(j)
				}
			}
			return engine.Run(ctx, grid, nil)
		}
		r, err := fleet.Run(ctx, c, tr, cost.Default(), sim)
		t.end(run)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
		counts.jobs += len(r.Outcomes)
		for _, oc := range r.Outcomes {
			if oc.Admitted {
				counts.admitted++
			} else {
				counts.refused++
			}
		}
	}
	t.end(fid)
	var outs []string
	id = t.begin("report.Render", root, "fleet")
	out, err := report.Render(experiments.FleetReport(results), report.FormatText)
	t.end(id)
	if err != nil {
		return nil, nil, err
	}
	outs = append(outs, out)

	for _, w := range planeWorkloads {
		pid := t.begin("experiments.ScaleOutRows", root, w)
		batch := experiments.ScaleOutBatch(planeNodes)
		var pts []scaleout.ScalingPoint
		for _, n := range planeNodes {
			p := scaleout.Default(n)
			var iter [2]units.Time
			for i, mc := range []bool{false, true} {
				id := t.begin("scaleout.Simulate", pid, fmt.Sprintf("%s|%d nodes|mc=%v", w, n, mc))
				r, err := p.Simulate(w, batch, mc, scaleout.DataParallel)
				t.end(id)
				if err != nil {
					return nil, nil, err
				}
				iter[i] = r.Iteration
			}
			pts = append(pts, scaleout.ScalingPoint{
				SystemNodes: n, Devices: p.TotalDevices(),
				IterDC: iter[0], IterMC: iter[1],
				PoolTB: float64(p.PoolCapacity()) / 1e12,
			})
		}
		scaleout.FillSpeedups(pts)
		t.end(pid)
		id := t.begin("report.Render", root, w)
		out, err := report.Render(experiments.ScaleOutReport(w, pts, false), report.FormatText)
		t.end(id)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
	}
	counts.stats = engine.Stats()
	return outs, counts, nil
}

type fleetCounts struct {
	jobs, admitted, refused int
	stats                   runner.CacheStats
}

// traceFleet alternates untraced and traced in-process passes, checks
// their output against the CLI reference, and replays the fleet's
// distinct simulation jobs through the engine layers.
func traceFleet(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{metrics: zeroLayers()}
	tracePath, want, err := fleetSetup(ctx, e)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return nil, err
	}
	check := func(outs []string) {
		for i := range want {
			o.check(outs[i] == want[i], fmt.Sprintf("in-process output %d differs from the CLI reference", i))
		}
	}
	if _, _, err := inProcessFleet(ctx, e, nil, data, nil); err != nil {
		return nil, err
	}
	var plain, traced []float64
	var t *tracer
	var jobs *jobSet
	var counts *fleetCounts
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second) / 2))
	for len(plain) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		outs, _, err := inProcessFleet(ctx, e, nil, data, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(start).Seconds())
		check(outs)

		t, jobs = newTracer(), &jobSet{}
		start = time.Now()
		outs, counts, err = inProcessFleet(ctx, e, t, data, jobs)
		if err != nil {
			return nil, err
		}
		traced = append(traced, time.Since(start).Seconds())
		check(outs)
	}
	m := o.metrics
	passSpans := append([]span(nil), t.spans...)
	ls := layerStats(passSpans)
	m["fleet.self_s"] = ls["fleet"].self
	m["fleet.sim_wait_s"] = ls["runner"].busy
	m["fleet.jobs"] = float64(counts.jobs)
	m["fleet.admitted"] = float64(counts.admitted)
	m["fleet.refused"] = float64(counts.refused)
	m["scaleout.busy_s"] = ls["scaleout"].self
	m["scaleout.calls"] = float64(ls["scaleout"].calls)
	m["scaleout.ms_per_call"] = 1000 * ls["scaleout"].self / float64(ls["scaleout"].calls)
	m["experiments.busy_s"] = ls["experiments"].self
	m["report.busy_s"] = ls["report"].self
	m["runner.jobs"] = float64(jobs.total)
	m["runner.simulated"] = float64(counts.stats.Simulated)
	m["runner.memo_hit_ratio"] = float64(counts.stats.Hits) / float64(counts.stats.Hits+counts.stats.Misses)
	m["trace.coverage"] = coverage(passSpans, 1)
	m["trace.overhead_s"] = median(traced) - median(plain)

	rroot := t.begin("replay", 0, "scaleout-fleet")
	traffic, err := replay(t, rroot, jobs.jobs)
	t.end(rroot)
	if err != nil {
		return nil, err
	}
	replaySpans := t.spans[len(passSpans):]
	engineLayers(m, replaySpans[1:], traffic)

	path, err := writeSpans(e, "scaleout-fleet", t.spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("untraced in-process pass: %s\n", describe(plain, "s"))
	fmt.Printf("traced in-process pass:   %s\n", describe(traced, "s"))
	fmt.Printf("tracing overhead: %.4f s per pass; spans cover %.1f%% of the pass\n", m["trace.overhead_s"], 100*m["trace.coverage"])
	printLayers(os.Stdout, "pass: self time per layer", passSpans, passSpans[0].dur())
	printLayers(os.Stdout, fmt.Sprintf("replay of the fleet's %d distinct jobs: self time per layer", len(jobs.jobs)), replaySpans, replaySpans[0].dur())
	fmt.Printf("spans: %s\n", path)
	return o, nil
}
