package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; Parent is
// the id of the span that caused it (0 for a root); Job names the request
// or simulation job it served.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// layer is the module a span belongs to: the part of its name before the
// first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records a span whose times were taken elsewhere, as the load
// generator's request spans are.
func (t *tracer) add(name string, parent int, job string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover (children may overlap one another).
func selfTimes(spans []span) []float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total := 0.0
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}

// layerStat aggregates the spans of one layer.
type layerStat struct {
	calls int
	busy  float64 // summed duration
	self  float64 // summed self time
}

// layerStats groups spans by layer; a root span is a layer of its own.
func layerStats(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := map[string]*layerStat{}
	for i, s := range spans {
		st := out[s.layer()]
		if st == nil {
			st = &layerStat{}
			out[s.layer()] = st
		}
		st.calls++
		st.busy += s.dur()
		st.self += self[i]
	}
	return out
}

// coverage is the share of root's duration that its child spans cover.
func coverage(spans []span, root int) float64 {
	var kids []span
	for _, s := range spans {
		if s.Parent == root {
			kids = append(kids, s)
		}
	}
	r := spans[root-1]
	if r.dur() <= 0 {
		return 0
	}
	return covered(r, kids) / r.dur()
}

// printLayers writes the self time per layer and its share of wall, the
// duration the table is read against.
func printLayers(w io.Writer, title string, spans []span, wall float64) {
	stats := layerStats(spans)
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return stats[names[a]].self > stats[names[b]].self })
	fmt.Fprintf(w, "%s (%.3f s)\n", title, wall)
	fmt.Fprintf(w, "  %-12s %8s %10s %10s %7s\n", "layer", "calls", "busy s", "self s", "share")
	for _, n := range names {
		st := stats[n]
		share := 0.0
		if wall > 0 {
			share = st.self / wall
		}
		fmt.Fprintf(w, "  %-12s %8d %10.4f %10.4f %6.1f%%\n", n, st.calls, st.busy, st.self, 100*share)
	}
}

// writeSpans saves the spans as JSON under .bench_build/spans/ and returns
// the file's path.
func writeSpans(e *env, workload string, spans []span) (string, error) {
	dir := filepath.Join(e.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, e.seed))
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
