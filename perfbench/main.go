// Command perfbench is the repeatable end-to-end and per-layer benchmark of
// mcdla. It times the real mcdla binary from outside, checks every output it
// gets back, and prints one JSON result line:
//
//	perfbench -root . -bin .bench_build/bin/mcdla -workload paper-cold -seed 1 -seconds 30 -trace 0
//
// run.sh builds both binaries from the checkout and passes -root and -bin.
// With -trace 0 the result holds the end-to-end metrics of untraced runs;
// with -trace 1 it holds the per-layer metrics of a traced run of the same
// workload and seed, and the spans are written under .bench_build/.
//
// -aa A.jsonl,B.jsonl compares two recorded result sets (see -record) within
// the bounds of BENCHMARK.json and prints a verdict per metric and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the README's numbers were taken with.
const defaultSeed = 1

// env is what every workload needs to run: where the checkout and the
// binary are, the seed, the time budget and the scratch directory.
type env struct {
	root    string // checkout root
	bin     string // mcdla binary built from the checkout
	seed    uint64
	seconds float64 // measurement budget
	nproc   int     // concurrency bound of the load generator and -parallel
	work    string  // per-run scratch directory under .bench_build
}

// outcome is a workload's raw result: the operations checked, the ones that
// failed, and the metrics by name.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
}

func (o *outcome) check(ok bool, what string) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %s\n", what)
	}
}

// okRatio is the share of checked operations that were correct.
func okRatio(o *outcome) float64 {
	return float64(o.attempted-o.failed) / float64(o.attempted)
}

// workload is one benchmark input set. run measures the end-to-end metrics
// without tracing; trace measures the per-layer metrics.
type workload struct {
	name  string
	run   func(ctx context.Context, e *env) (*outcome, error)
	trace func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"paper-cold", runPaper, tracePaper},
	{"scaleout-fleet", runFleet, traceFleet},
	{"serve-mixed", runServe, traceServe},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of stdout, the one a caller of the benchmark
// reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", ".", "mcdla checkout root")
	bin := flag.String("bin", "", "mcdla binary built from the checkout")
	name := flag.String("workload", "", "workload: paper-cold, scaleout-fleet or serve-mixed")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement time per run")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	record := flag.String("record", "", "also append the result line, tagged with workload, seed and trace, to FILE")
	aa := flag.String("aa", "", "A/A mode: compare two recorded result sets A.jsonl,B.jsonl")
	flag.Parse()

	if *aa != "" {
		files := strings.Split(*aa, ",")
		if len(files) != 2 {
			return fmt.Errorf("-aa wants two files separated by a comma")
		}
		spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
		if err != nil {
			return err
		}
		bad, err := compareAA(os.Stdout, spec, files[0], files[1])
		if err != nil {
			return err
		}
		if bad {
			os.Exit(3)
		}
		return nil
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown -workload %q", *name)
	case *bin == "":
		return fmt.Errorf("-bin is required")
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("-trace wants 0 or 1, got %d", *traced)
	case *seconds <= 0:
		return fmt.Errorf("-seconds must be positive")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	work := filepath.Join(absRoot, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{root: absRoot, bin: absBin, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), work: work}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	var o *outcome
	metrics := endToEndMetrics
	if *traced == 1 {
		o, err = w.trace(ctx, e)
		metrics = perLayerMetrics
	} else {
		o, err = w.run(ctx, e)
	}
	if err != nil {
		return fmt.Errorf("%s: %v", w.name, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1f s\n", w.name, *seed, time.Since(start).Seconds())

	line := resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range metrics {
		v, ok := o.metrics[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, m.name)
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if *record != "" {
		if err := appendRecord(*record, w.name, *seed, *traced, line); err != nil {
			return err
		}
	}
	printMetrics(os.Stdout, metrics, o.metrics)
	fmt.Println(string(out))
	return nil
}

// printMetrics lists the metrics by name with their units, one per line.
func printMetrics(w io.Writer, specs []metricSpec, values map[string]float64) {
	names := make([]string, 0, len(specs))
	width := 0
	for _, m := range specs {
		names = append(names, m.name)
		width = max(width, len(m.name))
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, m := range specs {
		units[m.name] = m.unit
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-*s  %14.6g %s\n", width, n, values[n], units[n])
	}
}
