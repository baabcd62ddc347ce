package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// fakeSim returns deterministic hash-derived iteration times, so the
// property tests exercise the scheduler without paying for real simulations.
func fakeSim(_ context.Context, jobs []runner.Job) ([]core.Result, error) {
	out := make([]core.Result, len(jobs))
	for i, j := range jobs {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%d", j.Design.Name, j.Workload, j.Strategy, j.Batch, j.Workers, j.SeqLen, j.Precision)
		out[i] = core.Result{IterationTime: units.Seconds(0.001 + float64(h.Sum64()%997)/100)}
	}
	return out, nil
}

// randomTrace builds a seeded random trace over cheap CNN/RNN workloads plus
// occasional pool-stressing BERT points.
func randomTrace(seed int64, n int) []Job {
	rng := rand.New(rand.NewSource(seed))
	workloads := []string{"AlexNet", "ResNet", "RNN-GRU", "RNN-LSTM-2", "BERT-Large"}
	jobs := make([]Job, n)
	for i := range jobs {
		w := workloads[rng.Intn(len(workloads))]
		j := Job{
			Workload: w,
			Arrival:  units.Seconds(float64(rng.Intn(600))),
			Iters:    1 + rng.Intn(50),
			Devices:  1 << rng.Intn(4), // 1,2,4,8: every dim in the suite splits evenly
			Batch:    64 << rng.Intn(4),
		}
		if w == "BERT-Large" {
			j.SeqLen = 512
			j.Precision = train.Mixed
		}
		if rng.Intn(3) == 0 {
			j.Strategy = train.ModelParallel
		}
		if rng.Intn(4) == 0 {
			j.Deadline = j.Arrival + units.Seconds(float64(60+rng.Intn(2000)))
		}
		jobs[i] = j
	}
	return NormalizeTrace(jobs)
}

func testCluster() Cluster {
	return Cluster{Name: "mix", Pods: []PodSpec{
		{Kind: "DC-DLA", Count: 2},
		{Kind: "MC-DLA(B)", Count: 1},
	}}
}

func podCapacity(t *testing.T, kind string) units.Bytes {
	t.Helper()
	d, err := core.DesignFor(kind, accel.Default(), PodWorkers)
	if err != nil {
		t.Fatal(err)
	}
	c := cost.Default().PoolCapacity(d)
	if c <= 0 {
		t.Fatalf("pod kind %s has no pool", kind)
	}
	return c
}

// TestSchedulerInvariants is the property harness: over seeded random
// traces, every admitted job completes exactly once, no pod's resident
// footprint or device allocation ever exceeds its capacity, per-job times
// are monotone, and total busy device-time is bounded by the fleet's
// device-seconds.
func TestSchedulerInvariants(t *testing.T) {
	cluster := testCluster()
	caps := map[string]units.Bytes{
		"DC-DLA":    podCapacity(t, "DC-DLA"),
		"MC-DLA(B)": podCapacity(t, "MC-DLA(B)"),
	}
	for _, tc := range []struct {
		seed int64
		n    int
	}{
		{seed: 1, n: 10}, {seed: 2, n: 25}, {seed: 3, n: 40},
		{seed: 4, n: 60}, {seed: 5, n: 80}, {seed: 42, n: 120},
	} {
		t.Run(fmt.Sprintf("seed%d_n%d", tc.seed, tc.n), func(t *testing.T) {
			trace := randomTrace(tc.seed, tc.n)
			res, err := Run(context.Background(), cluster, trace, cost.Default(), fakeSim)
			if err != nil {
				t.Fatal(err)
			}

			// Completion exactly once: the outcome partition covers the trace.
			admitted := 0
			for i, o := range res.Outcomes {
				if o.Admitted == (o.Refused != "") {
					t.Fatalf("job %d: admitted=%v with refusal %q", i, o.Admitted, o.Refused)
				}
				if o.Admitted {
					admitted++
				}
			}
			if admitted != res.Completed {
				t.Fatalf("admitted %d jobs but completed %d", admitted, res.Completed)
			}
			if admitted+res.Refused != len(trace) {
				t.Fatalf("admitted %d + refused %d != %d jobs", admitted, res.Refused, len(trace))
			}

			// Monotone per-job times.
			for i, o := range res.Outcomes {
				if !o.Admitted {
					continue
				}
				if o.Start < o.Job.Arrival || o.Finish < o.Start {
					t.Fatalf("job %d: non-monotone times arrival=%v start=%v finish=%v", i, o.Job.Arrival, o.Start, o.Finish)
				}
				if got := o.Start - o.Job.Arrival; got != o.QueueDelay {
					t.Fatalf("job %d: queue delay %v, want %v", i, o.QueueDelay, got)
				}
			}

			// Capacity sweep: replay every pod's resident set at each start
			// event; [start, finish) intervals must respect bytes and devices.
			byPod := map[string][]Outcome{}
			for _, o := range res.Outcomes {
				if o.Admitted {
					byPod[o.Pod] = append(byPod[o.Pod], o)
				}
			}
			for pod, jobs := range byPod {
				kind := pod[:strings.LastIndex(pod, "/")]
				capacity, ok := caps[kind]
				if !ok {
					t.Fatalf("unknown pod kind in placement %q", pod)
				}
				for _, at := range jobs {
					var bytes units.Bytes
					var dev int
					for _, o := range jobs {
						if o.Start <= at.Start && at.Start < o.Finish {
							bytes += o.Footprint
							dev += o.Job.Devices
						}
					}
					if bytes > capacity {
						t.Fatalf("pod %s over pool at t=%v: %v > %v", pod, at.Start, bytes, capacity)
					}
					if dev > PodWorkers {
						t.Fatalf("pod %s over devices at t=%v: %d > %d", pod, at.Start, dev, PodWorkers)
					}
				}
			}

			// Busy-time bound: Σ devices × service ≤ pods × devices × makespan.
			bound := units.Time(float64(res.TotalDevices) * res.Makespan.Seconds())
			if res.BusyDeviceTime > bound {
				t.Fatalf("busy device-time %v exceeds fleet bound %v", res.BusyDeviceTime, bound)
			}
			if res.Utilization < 0 || res.Utilization > 1 {
				t.Fatalf("utilization %v outside [0,1]", res.Utilization)
			}
		})
	}
}

// TestRunDeterministic pins run-to-run determinism of the whole result.
func TestRunDeterministic(t *testing.T) {
	trace := randomTrace(7, 50)
	a, err := Run(context.Background(), testCluster(), trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), testCluster(), trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs diverged")
	}
}

// TestRefusals pins the permanent-refusal reasons: an over-wide job and a
// job whose footprint exceeds every pool are named, everything else runs.
func TestRefusals(t *testing.T) {
	cluster := Cluster{Name: "dc", Pods: []PodSpec{{Kind: "DC-DLA", Count: 1}}}
	trace := NormalizeTrace([]Job{
		{Name: "wide", Workload: "AlexNet", Devices: PodWorkers + 1, Iters: 1},
		{Name: "huge", Workload: "BERT-Large", Devices: 8, Batch: 1024, SeqLen: 512, Precision: train.FP32, Iters: 1},
		{Name: "ok", Workload: "AlexNet", Devices: 2, Iters: 1},
	})
	res, err := Run(context.Background(), cluster, trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refused != 1 || !strings.Contains(res.Outcomes[0].Refused, "devices") {
		t.Fatalf("wide job not refused for devices: %+v", res.Outcomes[0])
	}
	// The 441 GB fp32 BERT job fits the 768 GB DC pool, so only the wide job
	// is refused here; against a smaller-pooled cluster it must be refused too.
	if !res.Outcomes[1].Admitted {
		t.Fatalf("huge-but-fitting job refused: %+v", res.Outcomes[1])
	}
	if !res.Outcomes[2].Admitted || res.Outcomes[2].Finish <= 0 {
		t.Fatalf("ok job did not complete: %+v", res.Outcomes[2])
	}
}

// TestPooledAdmissionGap reproduces the acceptance criterion with real
// footprints: a working set above 768 GB is refused by the device-centric
// pod and admitted by the memory-centric pod's 10 TB DIMM pool.
func TestPooledAdmissionGap(t *testing.T) {
	trace := NormalizeTrace([]Job{
		{Name: "gpt2", Workload: "GPT-2", Devices: 8, SeqLen: 1024, Precision: train.Mixed, Iters: 2},
	})
	dc, err := Run(context.Background(), Cluster{Name: "dc", Pods: []PodSpec{{Kind: "DC-DLA", Count: 1}}},
		trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Run(context.Background(), Cluster{Name: "mc", Pods: []PodSpec{{Kind: "MC-DLA(B)", Count: 1}}},
		trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Refused != 1 || !strings.Contains(dc.Outcomes[0].Refused, "pool") {
		t.Fatalf("DC pod admitted the 2 TB GPT-2 job: %+v", dc.Outcomes[0])
	}
	if mc.Completed != 1 {
		t.Fatalf("MC pod refused the GPT-2 job: %+v", mc.Outcomes[0])
	}
}

// TestDeadlines pins the miss accounting: a deadline tighter than the
// service time is missed, a loose one is met.
func TestDeadlines(t *testing.T) {
	cluster := Cluster{Name: "dc", Pods: []PodSpec{{Kind: "DC-DLA", Count: 1}}}
	trace := NormalizeTrace([]Job{
		{Name: "tight", Workload: "AlexNet", Devices: 2, Iters: 1000, Deadline: units.Seconds(0.0001)},
		{Name: "loose", Workload: "AlexNet", Devices: 2, Iters: 1, Deadline: units.Seconds(1e9)},
	})
	res, err := Run(context.Background(), cluster, trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 1 || !res.Outcomes[0].Missed || res.Outcomes[1].Missed {
		t.Fatalf("deadline accounting wrong: %+v", res.Outcomes)
	}
}

// TestRunErrors pins the scheduler's input validation.
func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	m := cost.Default()
	ok := NormalizeTrace([]Job{{Workload: "AlexNet", Iters: 1}})
	cases := []struct {
		name    string
		cluster Cluster
		trace   []Job
		sim     Simulator
		want    string
	}{
		{"no pods", Cluster{Name: "x"}, ok, fakeSim, "no pods"},
		{"bad count", Cluster{Name: "x", Pods: []PodSpec{{Kind: "DC-DLA", Count: 0}}}, ok, fakeSim, "count must be positive"},
		{"bad kind", Cluster{Name: "x", Pods: []PodSpec{{Kind: "Z-DLA", Count: 1}}}, ok, fakeSim, "unknown design"},
		{"empty trace", testCluster(), nil, fakeSim, "empty trace"},
		{"nil sim", testCluster(), ok, nil, "nil simulator"},
		{"bad workload", testCluster(), NormalizeTrace([]Job{{Workload: "NoNet", Iters: 1}}), fakeSim, "NoNet"},
		{"sim error", testCluster(), ok, func(context.Context, []runner.Job) ([]core.Result, error) {
			return nil, fmt.Errorf("boom")
		}, "boom"},
		{"sim short", testCluster(), ok, func(_ context.Context, jobs []runner.Job) ([]core.Result, error) {
			return make([]core.Result, len(jobs)+1), nil
		}, "results"},
		{"sim zero time", testCluster(), ok, func(_ context.Context, jobs []runner.Job) ([]core.Result, error) {
			return make([]core.Result, len(jobs)), nil
		}, "nonpositive iteration time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(ctx, tc.cluster, tc.trace, m, tc.sim)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestFootprintAccounting pins the model-parallel weight sharding and the
// device multiplier against the run report's accounting.
func TestFootprintAccounting(t *testing.T) {
	dp, err := train.BuildSeq("AlexNet", 512, 4, train.DataParallel, 0, train.FP32)
	if err != nil {
		t.Fatal(err)
	}
	j := Job{Workload: "AlexNet", Devices: 4, Batch: 512, Precision: train.FP32}
	want := units.Bytes(4 * (dp.Graph.TotalWeightBytes()*train.FP32.MasterScale() + dp.Graph.StashBytes()))
	if got := Footprint(j, dp); got != want {
		t.Fatalf("dp footprint %v, want %v", got, want)
	}
	mp, err := train.BuildSeq("AlexNet", 512, 4, train.ModelParallel, 0, train.FP32)
	if err != nil {
		t.Fatal(err)
	}
	jm := j
	jm.Strategy = train.ModelParallel
	wantMP := units.Bytes(4 * (mp.Graph.TotalWeightBytes()*train.FP32.MasterScale()/4 + mp.Graph.StashBytes()))
	if got := Footprint(jm, mp); got != wantMP {
		t.Fatalf("mp footprint %v, want %v", got, wantMP)
	}
}

// TestRunMatchesReference is the differential test: over seeded traces with
// arrival ties, equal finish times, refusals for width and for pool capacity,
// and clusters from one pod to four kinds (the oracle's unbounded pool and a
// kind listed twice among them), Run must reproduce referenceRun outcome for
// outcome, summary float for summary float, and error for error.
func TestRunMatchesReference(t *testing.T) {
	clusters := []Cluster{
		{Name: "one-dc", Pods: []PodSpec{{Kind: "DC-DLA", Count: 1}}},
		{Name: "one-mc", Pods: []PodSpec{{Kind: "MC-DLA(B)", Count: 1}}},
		testCluster(),
		{Name: "four-kinds", Pods: []PodSpec{
			{Kind: "DC-DLA", Count: 1},
			{Kind: "HC-DLA", Count: 2},
			{Kind: "MC-DLA(B)", Count: 1},
			{Kind: "DC-DLA(O)", Count: 1},
			{Kind: "DC-DLA", Count: 1},
		}},
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		trace := tiedTrace(seed, 150+50*int(seed%3))
		for _, c := range clusters {
			t.Run(fmt.Sprintf("seed%d/%s", seed, c.Name), func(t *testing.T) {
				if err := assertMatchesReference(t, c, trace, quantizedSim); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	// Completions sharing an instant are accounted in trace order: jobs of
	// 1, 2 and 4 devices finish together, and their busy device-seconds
	// (0.1, 0.2 and 0.4) sum to different floats in different orders.
	tenth := func(_ context.Context, jobs []runner.Job) ([]core.Result, error) {
		out := make([]core.Result, len(jobs))
		for i := range out {
			out[i].IterationTime = units.Seconds(0.1)
		}
		return out, nil
	}
	for _, perm := range [][]int{{1, 2, 4}, {1, 4, 2}, {2, 1, 4}, {2, 4, 1}, {4, 1, 2}, {4, 2, 1}} {
		trace := []Job{{Workload: "AlexNet", Devices: PodWorkers + 1}}
		for _, dev := range perm {
			trace = append(trace, Job{Workload: "AlexNet", Devices: dev, Iters: 1})
		}
		if err := assertMatchesReference(t, clusters[1], NormalizeTrace(trace), tenth); err != nil {
			t.Fatal(err)
		}
	}

	// Error parity: a kind whose simulated iteration time is zero fails at
	// the first admission onto it, naming the same job in both.
	zeroHC := func(ctx context.Context, jobs []runner.Job) ([]core.Result, error) {
		out, err := quantizedSim(ctx, jobs)
		for i, j := range jobs {
			if j.Design.Name == "HC-DLA" {
				out[i].IterationTime = 0
			}
		}
		return out, err
	}
	if err := assertMatchesReference(t, clusters[3], tiedTrace(7, 120), zeroHC); err == nil {
		t.Fatal("zero iteration time on HC-DLA was accepted")
	}
}

// assertMatchesReference runs both schedulers and returns the reference's
// error, which Run must have matched.
func assertMatchesReference(t *testing.T, c Cluster, trace []Job, sim Simulator) error {
	t.Helper()
	ctx := context.Background()
	want, wantErr := referenceRun(ctx, c, trace, cost.Default(), sim)
	got, gotErr := Run(ctx, c, trace, cost.Default(), sim)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return wantErr
	}
	if want.Refused == 0 || want.Completed == 0 {
		t.Fatalf("trace exercises too little: %d completed, %d refused", want.Completed, want.Refused)
	}
	for i := range want.Outcomes {
		if !reflect.DeepEqual(got.Outcomes[i], want.Outcomes[i]) {
			t.Fatalf("outcome %d:\n got  %+v\n want %+v", i, got.Outcomes[i], want.Outcomes[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summary diverged:\n got  %+v\n want %+v", *got, *want)
	}
	return nil
}

// quantizedSim returns iteration times from a four-value menu, so jobs with
// equal iteration counts finish at the same instant.
func quantizedSim(_ context.Context, jobs []runner.Job) ([]core.Result, error) {
	out := make([]core.Result, len(jobs))
	for i, j := range jobs {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%d", j.Design.Name, j.Workload, j.Strategy, j.Batch, j.Workers, j.SeqLen, j.Precision)
		out[i] = core.Result{IterationTime: units.Seconds(0.1 * float64(1+h.Sum64()%4))}
	}
	return out, nil
}

// tiedTrace builds a seeded trace whose arrivals fall on a coarse grid (many
// ties) and whose iteration counts come from a short menu (many equal finish
// times). It mixes over-wide jobs with GPT-2 points whose footprint exceeds a
// device-centric pool.
func tiedTrace(seed int64, n int) []Job {
	rng := rand.New(rand.NewSource(seed))
	workloads := []string{"AlexNet", "ResNet", "RNN-GRU", "RNN-LSTM-2", "BERT-Large", "GPT-2"}
	jobs := make([]Job, n)
	for i := range jobs {
		w := workloads[rng.Intn(len(workloads))]
		j := Job{
			Workload: w,
			Arrival:  units.Seconds(float64(10 * rng.Intn(n/3))),
			Iters:    []int{10, 20, 30, 40, 60}[rng.Intn(5)],
			Devices:  []int{1, 2, 4, 8}[rng.Intn(4)],
			Batch:    []int{256, 512}[rng.Intn(2)],
		}
		switch w {
		case "BERT-Large":
			j.SeqLen, j.Precision = 512, train.Mixed
		case "GPT-2":
			j.SeqLen, j.Precision, j.Devices = 1024, train.Mixed, 8
		}
		if rng.Intn(3) == 0 {
			j.Strategy = train.ModelParallel
		}
		if rng.Intn(25) == 0 {
			j.Devices = PodWorkers + 1 + rng.Intn(4)
		}
		if rng.Intn(4) == 0 {
			j.Deadline = j.Arrival + units.Seconds(float64(20*rng.Intn(30)))
		}
		jobs[i] = j
	}
	return NormalizeTrace(jobs)
}

// referenceRun is the straightforward form of Run that the differential
// test holds it to: it recomputes the footprint of every job, keys the
// simulation grid by formatted strings, searches all active jobs for the
// next finish and rescans the whole queue at every event.
func referenceRun(ctx context.Context, cluster Cluster, trace []Job, m cost.Model, sim Simulator) (*Result, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("fleet: cluster %q: empty trace", cluster.Name)
	}
	if sim == nil {
		return nil, fmt.Errorf("fleet: cluster %q: nil simulator", cluster.Name)
	}
	trace = NormalizeTrace(trace)

	// Pod state and cluster bill. A zero pool (the oracle's fictional
	// infinite memory) schedules as unbounded.
	var pods []pod
	var clusterUSD float64
	for _, spec := range cluster.Pods {
		d, err := core.DesignFor(spec.Kind, accel.Default(), PodWorkers)
		if err != nil {
			return nil, fmt.Errorf("fleet: cluster %q: %v", cluster.Name, err)
		}
		capacity := m.PoolCapacity(d)
		if capacity <= 0 {
			capacity = units.Bytes(math.MaxInt64)
		}
		clusterUSD += m.Price(d).Total() * float64(spec.Count)
		for i := 0; i < spec.Count; i++ {
			pods = append(pods, pod{
				name:      fmt.Sprintf("%s/%d", spec.Kind, i),
				capacity:  capacity,
				freeBytes: capacity,
				freeDev:   PodWorkers,
			})
		}
	}

	// Footprints (one schedule build per distinct workload point) and the
	// prefetched simulation grid (one runner job per distinct trace-point ×
	// pod-kind, in first-appearance order so the grid is deterministic).
	footprints := make([]units.Bytes, len(trace))
	scheds := map[string]*train.Schedule{}
	var grid []runner.Job
	gridIdx := map[string]int{}
	for i, j := range trace {
		if j.Devices > PodWorkers {
			continue // refused at arrival; never simulated
		}
		sk := simPoint(j, "")
		s, ok := scheds[sk]
		if !ok {
			var err error
			s, err = train.BuildSeq(j.Workload, j.Batch, j.Devices, j.Strategy, j.SeqLen, j.Precision)
			if err != nil {
				return nil, fmt.Errorf("fleet: job %q: %v", j.Name, err)
			}
			scheds[sk] = s
		}
		footprints[i] = Footprint(j, s)
		for _, spec := range cluster.Pods {
			pk := simPoint(j, spec.Kind)
			if _, ok := gridIdx[pk]; ok {
				continue
			}
			d, err := core.DesignFor(spec.Kind, accel.Default(), j.Devices)
			if err != nil {
				return nil, fmt.Errorf("fleet: cluster %q: %v", cluster.Name, err)
			}
			gridIdx[pk] = len(grid)
			grid = append(grid, runner.Job{
				Design: d, Workload: j.Workload, Strategy: j.Strategy,
				Batch: j.Batch, Workers: j.Devices, SeqLen: j.SeqLen,
				Precision: j.Precision, Tag: "fleet",
			})
		}
	}
	results, err := sim(ctx, grid)
	if err != nil {
		return nil, fmt.Errorf("fleet: cluster %q: %v", cluster.Name, err)
	}
	if len(results) != len(grid) {
		return nil, fmt.Errorf("fleet: cluster %q: simulator returned %d results for %d jobs", cluster.Name, len(results), len(grid))
	}
	iterTime := func(jobIdx, podIdx int) (units.Time, error) {
		kind := podKind(cluster, podIdx)
		gi, ok := gridIdx[simPoint(trace[jobIdx], kind)]
		if !ok {
			return 0, fmt.Errorf("fleet: cluster %q: no simulation for job %q on %s", cluster.Name, trace[jobIdx].Name, kind)
		}
		t := results[gi].IterationTime
		if t <= 0 {
			return 0, fmt.Errorf("fleet: cluster %q: nonpositive iteration time for job %q on %s", cluster.Name, trace[jobIdx].Name, kind)
		}
		return t, nil
	}

	// Arrival order: stable by arrival time, trace order on ties.
	order := make([]int, len(trace))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return trace[order[a]].Arrival < trace[order[b]].Arrival
	})

	maxPool := units.Bytes(0)
	for _, p := range pods {
		if p.capacity > maxPool {
			maxPool = p.capacity
		}
	}

	res := &Result{
		Cluster:      cluster,
		TotalDevices: len(pods) * PodWorkers,
		Outcomes:     make([]Outcome, len(trace)),
		CostUSD:      clusterUSD,
	}
	for i, j := range trace {
		res.Outcomes[i] = Outcome{Job: j, Footprint: footprints[i]}
	}

	// The event loop. Completions at time t free resources before arrivals
	// at t queue, and admission runs after both, so a departing job's pod is
	// immediately reusable within the same instant.
	var (
		now     units.Time
		arrived int
		queue   []int // waiting job indices, FIFO
		active  []running
	)
	for arrived < len(order) || len(active) > 0 {
		next := units.Time(math.Inf(1))
		if arrived < len(order) {
			next = trace[order[arrived]].Arrival
		}
		for _, r := range active {
			next = units.MinTime(next, r.finish)
		}
		if next < now {
			return nil, fmt.Errorf("fleet: cluster %q: virtual clock regressed from %v to %v", cluster.Name, now, next)
		}
		now = next

		// Completions at now, in trace order for determinism.
		var done []int
		rest := active[:0]
		for _, r := range active {
			if r.finish == now {
				done = append(done, r.jobIdx)
				pods[r.podIdx].freeDev += trace[r.jobIdx].Devices
				pods[r.podIdx].freeBytes += footprints[r.jobIdx]
			} else {
				rest = append(rest, r)
			}
		}
		active = rest
		sort.Ints(done)
		for _, ji := range done {
			o := &res.Outcomes[ji]
			o.Finish = now
			if o.Job.Deadline > 0 && o.Finish > o.Job.Deadline {
				o.Missed = true
				res.Missed++
			}
			res.Completed++
			res.BusyDeviceTime += units.Time(float64(o.Job.Devices) * o.Service.Seconds())
			res.Makespan = units.MaxTime(res.Makespan, o.Finish)
		}

		// Arrivals at now. Jobs that fit no empty pod are refused for good.
		for arrived < len(order) && trace[order[arrived]].Arrival == now {
			ji := order[arrived]
			arrived++
			j := trace[ji]
			o := &res.Outcomes[ji]
			switch {
			case j.Devices > PodWorkers:
				o.Refused = fmt.Sprintf("needs %d devices; pods have %d", j.Devices, PodWorkers)
			case footprints[ji] > maxPool:
				o.Refused = fmt.Sprintf("footprint %v exceeds largest pod pool %v", footprints[ji], maxPool)
			default:
				queue = append(queue, ji)
				continue
			}
			res.Refused++
		}

		// First-fit admission with backfill: the FIFO queue is scanned in
		// order, each job against pods in cluster order.
		rest2 := queue[:0]
		for _, ji := range queue {
			j := trace[ji]
			placed := -1
			for pi := range pods {
				if pods[pi].freeDev >= j.Devices && pods[pi].freeBytes >= footprints[ji] {
					placed = pi
					break
				}
			}
			if placed < 0 {
				rest2 = append(rest2, ji)
				continue
			}
			it, err := iterTime(ji, placed)
			if err != nil {
				return nil, err
			}
			pods[placed].freeDev -= j.Devices
			pods[placed].freeBytes -= footprints[ji]
			service := units.Time(float64(j.Iters) * it.Seconds())
			o := &res.Outcomes[ji]
			o.Admitted = true
			o.Pod = pods[placed].name
			o.Start = now
			o.QueueDelay = now - j.Arrival
			o.Service = service
			active = append(active, running{jobIdx: ji, podIdx: placed, finish: now + service})
		}
		queue = rest2
	}

	// Summary metrics over admitted jobs.
	admitted := 0
	var delaySum units.Time
	for _, o := range res.Outcomes {
		if !o.Admitted {
			continue
		}
		admitted++
		delaySum += o.QueueDelay
		res.MaxQueueDelay = units.MaxTime(res.MaxQueueDelay, o.QueueDelay)
	}
	if admitted > 0 {
		res.AvgQueueDelay = units.Time(delaySum.Seconds() / float64(admitted))
	}
	if span := res.Makespan.Seconds(); span > 0 {
		res.Utilization = res.BusyDeviceTime.Seconds() / (float64(res.TotalDevices) * span)
		res.JobsPerDay = float64(res.Completed) / (span / 86400)
	}
	res.JobsPerDayPerKUSD = cost.PerfPerDollar(res.JobsPerDay, res.CostUSD)
	return res, nil
}

// simPoint is the simulation identity of one trace job on one pod kind.
func simPoint(j Job, kind string) string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d", kind, j.Workload, j.Strategy, j.Batch, j.Devices, j.SeqLen, j.Precision)
}

// podKind maps a flat pod index back to its spec's design name.
func podKind(c Cluster, podIdx int) string {
	for _, spec := range c.Pods {
		if podIdx < spec.Count {
			return spec.Kind
		}
		podIdx -= spec.Count
	}
	return ""
}
