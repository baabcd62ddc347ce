package main

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
)

// jobSet collects the distinct simulation jobs of a pass in first-appearance
// order, as the runner memo would see them.
type jobSet struct {
	seen  map[string]bool
	jobs  []runner.Job
	total int // jobs submitted, repeats included
}

func (s *jobSet) add(j runner.Job) {
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	s.total++
	k := fmt.Sprintf("%+v", j.Canonical())
	if !s.seen[k] {
		s.seen[k] = true
		s.jobs = append(s.jobs, j)
	}
}

// replay runs each job one at a time through the engine's layers — graph
// build, schedule, memory-overlay planning, simulation — with a span per
// call. Graphs and schedules are shared per workload point and plans per
// oracle mode, exactly as the runner shares them, so the calls counted are
// the calls a pass makes. It returns the summed backing-store traffic.
func replay(t *tracer, parent int, jobs []runner.Job) (trafficBytes float64, err error) {
	type schedKey struct {
		workload               string
		strategy               train.Strategy
		batch, workers, seqlen int
		prec                   train.Precision
	}
	type prepKey struct {
		s      *train.Schedule
		oracle bool
	}
	scheds := map[schedKey]*train.Schedule{}
	prepared := map[prepKey]bool{}
	for _, j := range jobs {
		label := fmt.Sprintf("%s|%s|%s|b%d|w%d|s%d|%s", j.Design.Name, j.Workload, j.Strategy, j.Batch, j.Workers, j.SeqLen, j.Precision)
		k := schedKey{j.Workload, j.Strategy, j.Batch, j.Workers, j.SeqLen, j.Precision}
		s := scheds[k]
		if s == nil {
			deviceBatch := j.Batch
			if j.Strategy == train.DataParallel {
				deviceBatch = j.Batch / j.Workers
			}
			id := t.begin("dnn.BuildSeq", parent, label)
			g, err := dnn.BuildSeq(j.Workload, deviceBatch, j.SeqLen)
			t.end(id)
			if err != nil {
				return 0, fmt.Errorf("replay %s: %v", label, err)
			}
			id = t.begin("train.BuildGraph", parent, label)
			s, err = train.BuildGraph(g, j.Batch, j.Workers, j.Strategy, j.Precision)
			t.end(id)
			if err != nil {
				return 0, fmt.Errorf("replay %s: %v", label, err)
			}
			scheds[k] = s
		}
		if pk := (prepKey{s, j.Design.Oracle}); !prepared[pk] {
			id := t.begin("vmem.Prepare", parent, label)
			_, err := s.Prepared(j.Design.Oracle)
			t.end(id)
			if err != nil {
				return 0, fmt.Errorf("replay %s: %v", label, err)
			}
			prepared[pk] = true
		}
		id := t.begin("core.Simulate", parent, label)
		r, err := core.Simulate(j.Design, s)
		t.end(id)
		if err != nil {
			return 0, fmt.Errorf("replay %s: %v", label, err)
		}
		trafficBytes += float64(r.VirtTraffic)
	}
	return trafficBytes, nil
}

// engineLayers fills the dnn, train, vmem and core metrics from replay
// spans and the replayed traffic.
func engineLayers(m map[string]float64, spans []span, trafficBytes float64) {
	stats := layerStats(spans)
	for _, l := range []string{"dnn", "train", "vmem", "core"} {
		st := stats[l]
		if st == nil {
			continue
		}
		m[l+".busy_s"] = st.self
		m[l+".calls"] = float64(st.calls)
	}
	if c := m["core.calls"]; c > 0 {
		m["core.us_per_call"] = 1e6 * m["core.busy_s"] / c
	}
	m["vmem.traffic_gb"] = trafficBytes / 1e9
}
