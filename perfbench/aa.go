package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one result line tagged with what produced it, as -record
// appends it.
type record struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Trace    int        `json:"trace"`
	Result   resultLine `json:"result"`
}

func appendRecord(path, workload string, seed uint64, trace int, line resultLine) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: trace, Result: line})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords returns the untraced metric values of a result set by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, n, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		names := make([]string, 0, len(r.Result.Metrics))
		for name := range r.Result.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out[r.Workload][name] = append(out[r.Workload][name], r.Result.Metrics[name].Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartiles by the exclusive method
// of Python's statistics.quantiles(values, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// compareAA prints, for every workload and end-to-end metric, both sets'
// medians and spreads and a verdict: "same" when the medians differ by no
// more than the metric's bound, "worse" or "better" when they do, and
// "unresolved" when either set's spread is wider than the bound. It
// reports whether any verdict was other than "same".
func compareAA(w io.Writer, s *spec, fileA, fileB string) (bool, error) {
	a, err := readRecords(fileA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(fileB)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-15s %-14s %5s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "n", "median A", "sprd A", "median B", "sprd B", "change", "bound", "verdict")
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-14s  missing in one set\n", wl.Name, m.Name)
				bad = true
				continue
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "same"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case worse < -m.Bound:
				verdict = "better"
			}
			bad = bad || verdict != "same"
			fmt.Fprintf(w, "%-15s %-14s %2d/%-2d %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(va), len(vb), ma, 100*spread(va), mb, 100*spread(vb), 100*change, 100*m.Bound, verdict)
		}
	}
	return bad, nil
}
