package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished mcdla process: its wall time from exec to
// exit, its peak resident set and its standard output.
type procResult struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
}

// runMcdla runs the binary to completion in dir and returns its timing and
// output; a non-zero exit is an error carrying the tail of stderr.
func runMcdla(ctx context.Context, e *env, args ...string) (procResult, error) {
	cmd := exec.CommandContext(ctx, e.bin, args...)
	cmd.Dir = e.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procResult{}, fmt.Errorf("mcdla %s: %v: %s", strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	return procResult{wall: wall, rssMB: peakRSSMB(cmd), stdout: stdout.Bytes()}, nil
}

// peakRSSMB reads the exited child's maximum resident set from its rusage
// (Linux reports kilobytes).
func peakRSSMB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// runBatch times passes until the time budget is spent and fills the
// end-to-end metrics of a batch workload. Each pass is preceded by one
// `mcdla -quiet config` run, checked against want: its wall time is the
// start-up cost every batch command pays (process start plus every package
// init), sampled across the whole run rather than in one burst. The pass
// is the operation a user waits for, so serve_p50_ms and serve_p99_ms are
// its median and tail (the highest percentile with ten passes beyond it)
// and serve_max_rps is passes completed per second, one after another.
func runBatch(ctx context.Context, e *env, o *outcome, want string, pass func() (wall, rssMB float64, err error)) error {
	var setup, passes, rss []float64
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for len(passes) < 3 || time.Now().Before(deadline) {
		r, err := runMcdla(ctx, e, "-quiet", "config")
		if err != nil {
			return err
		}
		o.check(string(r.stdout) == want, "config output differs from cmd/mcdla/testdata/config.golden")
		setup = append(setup, r.wall.Seconds())
		wall, peak, err := pass()
		if err != nil {
			return err
		}
		passes = append(passes, wall)
		rss = append(rss, peak)
	}
	fmt.Printf("setup_s  %s\n", describe(setup, "s"))
	fmt.Printf("pass_s   %s\n", describe(passes, "s"))
	fmt.Printf("rss_mb   %s\n", describe(rss, "MB"))
	_, t := tail(passes)
	m := o.metrics
	m["setup_s"] = median(setup)
	m["peak_rss_mb"] = median(rss)
	m["pass_s"] = median(passes)
	m["serve_p50_ms"] = 1000 * median(passes)
	m["serve_p99_ms"] = 1000 * t
	m["serve_max_rps"] = float64(len(passes)) / sum(passes)
	m["ok_ratio"] = okRatio(o)
	return nil
}
