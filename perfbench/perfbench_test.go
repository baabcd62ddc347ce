package main

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/memcentric/mcdla/internal/fleet"
)

// allText assembles an `mcdla all`-shaped output from per-section texts.
func allText(sections map[string]string) string {
	var b strings.Builder
	for _, s := range paperSections {
		b.WriteString("\n================ " + s.name + " ================\n")
		b.WriteString(sections[s.name])
	}
	return b.String()
}

// TestCorruptedExpectedOutputIsAnError shows that every check counts a
// mismatch: one corrupted expected section of `all`, and one corrupted
// serve golden, each make the failure count and ok_ratio move.
func TestCorruptedExpectedOutputIsAnError(t *testing.T) {
	e := &env{root: ".."}
	want := map[string]string{}
	for _, s := range paperSections {
		var b strings.Builder
		for _, g := range s.goldens {
			data, err := os.ReadFile(filepath.Join(e.root, "cmd", "mcdla", "testdata", g+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
		if s.goldens == nil {
			b.WriteString(s.name + " reference\n")
		}
		want[s.name] = b.String()
	}
	out := allText(want)

	o := &outcome{}
	checkPaper(o, out, want)
	if o.failed != 0 || o.attempted != len(paperSections) {
		t.Fatalf("clean output: %d of %d failed, want 0 of %d", o.failed, o.attempted, len(paperSections))
	}

	corrupt := map[string]string{}
	for k, v := range want {
		corrupt[k] = v
	}
	corrupt["headline"] = strings.Replace(corrupt["headline"], "MC-DLA", "MC-DLB", 1)
	o = &outcome{}
	checkPaper(o, out, corrupt)
	if o.failed != 1 || okRatio(o) >= 1 {
		t.Fatalf("corrupted headline: %d failed, ok_ratio %v; want 1 failure", o.failed, okRatio(o))
	}

	c, err := newBodyChecker(e.root)
	if err != nil {
		t.Fatal(err)
	}
	u := "/v1/run?net=VGG-E&design=MC-DLA(B)"
	good := c.goldens[u]
	o = &outcome{}
	c.check(o, reqResult{req: serveReq{url: u, class: "run"}, status: 200, body: good})
	if o.failed != 0 {
		t.Fatalf("golden body counted as a failure")
	}
	c.goldens[u] = bytes.Replace(good, []byte("VGG-E"), []byte("VGG-F"), 1)
	c.check(o, reqResult{req: serveReq{url: u, class: "run"}, status: 200, body: good})
	if o.failed != 1 {
		t.Fatalf("corrupted golden: %d failed, want 1", o.failed)
	}

	// A repeated URL must return its first body, and any non-2xx fails.
	o = &outcome{}
	r := reqResult{req: serveReq{url: "/v1/headline", class: "report"}, status: 200, body: []byte("a")}
	c.check(o, r)
	r.body = []byte("b")
	c.check(o, r)
	c.check(o, reqResult{req: serveReq{url: "/healthz", class: "ops"}, status: 503})
	if o.attempted != 3 || o.failed != 2 {
		t.Fatalf("repeat and status checks: %d of %d failed, want 2 of 3", o.failed, o.attempted)
	}
}

// TestMetricsMatchSpec keeps the harness's metric names and units in step
// with BENCHMARK.json.
func TestMetricsMatchSpec(t *testing.T) {
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricSpec
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range s.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	if !equalSpecs(e2e, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, harness reports %v", e2e, endToEndMetrics)
	}
	if !equalSpecs(layer, perLayerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json = %v, harness reports %v", layer, perLayerMetrics)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workloads in BENCHMARK.json = %v, harness has %s at %d", names, w.name, i)
		}
	}
}

func equalSpecs(a, b []metricSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuartilesMatchPython pins the spread to Python's
// statistics.quantiles(values, n=4), which the A/A verdicts rely on.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a.x", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "a.y", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "b.z", Start: 7, End: 8},
	}
	if got := selfTimes(spans)[0]; got != 5 {
		t.Errorf("self time of the root = %v, want 5", got)
	}
	if got := coverage(spans, 1); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	if st := layerStats(spans)["a"]; st.calls != 2 || st.self != 5 {
		t.Errorf("layer a = %+v, want 2 calls and 5 s self", st)
	}
}

// TestSeededInputs checks that the seed alone determines the inputs, that
// they are valid, and that the request mix has its stated shares.
func TestSeededInputs(t *testing.T) {
	a, b := fleetTraceCSV(7), fleetTraceCSV(7)
	if a != b || a == fleetTraceCSV(8) {
		t.Fatal("fleet trace is not a function of the seed")
	}
	jobs, err := fleet.ParseTrace([]byte(a))
	if err != nil || len(jobs) != fleetJobs {
		t.Fatalf("fleet trace: %d jobs, %v; want %d valid jobs", len(jobs), err, fleetJobs)
	}

	pop := runPopulation(7)
	if len(pop) != runPopSize {
		t.Fatalf("population holds %d points, want %d", len(pop), runPopSize)
	}
	found := false
	again := runPopulation(7)
	for i, rp := range pop {
		if rp.url != again[i].url {
			t.Fatal("population is not a function of the seed")
		}
		found = found || rp.url == "/v1/run?net=VGG-E&design=MC-DLA(B)"
	}
	if !found {
		t.Error("population lacks the golden /v1/run point")
	}

	reqs := schedule(rand.New(rand.NewPCG(7, 1)), pop, 200, 10*time.Second)
	reqs2 := schedule(rand.New(rand.NewPCG(7, 1)), pop, 200, 10*time.Second)
	for i, r := range reqs {
		if r != reqs2[i] {
			t.Fatal("schedule is not a function of the seed")
		}
	}
	full := len(reqs) / 20 * 20
	count := map[string]int{}
	for _, r := range reqs[:full] {
		count[r.class]++
	}
	if count["run"] != full*15/20 || count["report"] != full*4/20 || count["ops"] != full/20 {
		t.Errorf("mix over %d requests = %v, want 75%% run, 20%% report, 5%% ops", full, count)
	}
}

// TestAAVerdicts shows the A/A comparison's three outcomes.
func TestAAVerdicts(t *testing.T) {
	dir := t.TempDir()
	s := &spec{}
	s.Workloads = append(s.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	s.EndToEnd = append(s.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"pass_s", "s", "lower", 0.1})
	write := func(name string, vals ...float64) string {
		path := filepath.Join(dir, name)
		for i, v := range vals {
			line := resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"pass_s": {v, "s"}}}
			if err := appendRecord(path, "w", uint64(i), 0, line); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", 1.00, 1.01, 0.99, 1.00)
	for _, c := range []struct {
		vals []float64
		want string
	}{
		{[]float64{1.01, 1.00, 1.00, 0.99}, "same"},
		{[]float64{1.30, 1.31, 1.29, 1.30}, "worse"},
		{[]float64{0.5, 1.5, 1.0, 2.0}, "unresolved"},
	} {
		var out bytes.Buffer
		bad, err := compareAA(&out, s, base, write(c.want, c.vals...))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), c.want) || bad != (c.want != "same") {
			t.Errorf("%v: verdict %q (bad %v), want %s", c.vals, out.String(), bad, c.want)
		}
	}
}
