package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// goldenPath is the pinned accuracy+ablation text every suite pass must
// reproduce byte for byte, read from the tree under test.
const goldenPath = "internal/experiments/testdata/accuracy_ablation.golden"

// suiteWorkers is how many fresh worker processes a suite run starts, one
// after another. Each pays a first pass (set-up) and then measures its
// share of the run's seconds; set-up time and peak RSS are the medians
// over the workers, pass times are pooled.
const suiteWorkers = 3

// workerReport is what a suite worker process prints on its standard
// output when it exits.
type workerReport struct {
	SetupS  float64      `json:"setup_s"`
	SetupOK bool         `json:"setup_ok"`
	Passes  []passReport `json:"passes"`
	WindowS float64      `json:"window_s"`
	VmHWMKB float64      `json:"vmhwm_kb"`
	Spans   []Span       `json:"spans,omitempty"`
	// Offset is when the worker's tracer epoch began, in Unix nanoseconds,
	// so the parent can place the worker's spans on its own clock.
	Offset int64 `json:"epoch_unix_ns"`
}

type passReport struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	Traced bool    `json:"traced"`
	OK     bool    `json:"ok"`
}

// runSuite measures the suite workload: each pass calls
// experiments.ResetCaches and then experiments.Run over every registered
// experiment at par = nproc, so every pass pays what one fresh `timely
// all` pays, classifier training included. Passes run in child processes
// so the peak RSS is the suite's own. The suite has no random inputs: the
// seed does not change what it computes.
func runSuite(ctx context.Context, cfg config, tr *Tracer) (*outcome, error) {
	var setups, rss, walls, cpus, tracedWalls []float64
	attempted, failed, ok := 0, 0, 0
	window := 0.0
	share := time.Duration(cfg.Seconds) * time.Second / suiteWorkers
	steal0, ticks0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	for i := 0; i < suiteWorkers; i++ {
		rep, err := startWorker(ctx, cfg, share)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Merge(rep.Spans, time.Unix(0, rep.Offset).Sub(tr.epoch))
		}
		setups = append(setups, rep.SetupS)
		rss = append(rss, rep.VmHWMKB/1024)
		window += rep.WindowS
		attempted++
		if !rep.SetupOK {
			failed++
		}
		for _, p := range rep.Passes {
			attempted++
			if p.OK {
				ok++
			} else {
				failed++
			}
			if p.Traced {
				tracedWalls = append(tracedWalls, p.WallS)
				continue
			}
			walls = append(walls, p.WallS)
			cpus = append(cpus, p.CPUS)
		}
	}
	steal1, ticks1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	out := &outcome{Correct: failed == 0, Attempted: attempted, Failed: failed}
	out.E2E = metrics{
		"setup_s":        median(setups),
		"peak_rss_mb":    median(rss),
		"latency_p50_ms": median(walls) * 1000,
		"latency_p99_ms": percentile(walls, 99) * 1000,
		"cpu_ms_per_op":  median(cpus) * 1000,
		"goodput_rps":    float64(ok) / window,
	}
	if tr != nil {
		out.Layer = metrics{
			"error_rate":         float64(failed) / float64(attempted),
			"trace.overhead_pct": overheadPct(tracedWalls, walls),
			"host.steal_pct":     100 * (steal1 - steal0) / (ticks1 - ticks0),
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: suite: set-ups %.3f s, peak RSS %.1f MB, %d measured passes, wall p50 %.3f s, cpu p50 %.3f s\n",
		setups, rss, len(walls), median(walls), median(cpus))
	return out, nil
}

// overheadPct is how much slower the traced operations ran than the
// untraced ones interleaved with them, in percent of the untraced median.
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	base := median(untraced)
	return (median(traced) - base) / base * 100
}

// startWorker runs one suite worker process to completion, measuring
// for the given share of the run, and returns its report.
func startWorker(ctx context.Context, cfg config, share time.Duration) (*workerReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-role", "suite-worker", "-share", share.String(),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.Trace]}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("suite worker: %w", err)
	}
	var rep workerReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("suite worker report: %w", err)
	}
	return &rep, nil
}

// suiteWorker is the child side of runSuite. It pays the set-up pass,
// then runs passes until share has elapsed (at least three), checking
// every pass's output, and prints its report as JSON. In a traced run
// every other pass is traced, so the report carries the tracing overhead
// measured against the untraced passes between them.
func suiteWorker(cfg config, share time.Duration) error {
	ctx := context.Background()
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("reading the golden output: %w", err)
	}
	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer()
	}
	c := &suiteChecker{golden: golden}
	rep := &workerReport{}
	if tr != nil {
		rep.Offset = tr.epoch.UnixNano()
	}

	start := time.Now()
	p, err := suitePass(ctx, cfg.Par, tr, c, 1)
	if err != nil {
		return err
	}
	rep.SetupS = since(start)
	rep.SetupOK = p.OK
	window := time.Now()
	deadline := window.Add(share)
	for n := uint64(2); time.Now().Before(deadline) || len(rep.Passes) < 3; n++ {
		ptr := tr
		if n%2 == 1 {
			ptr = nil // untraced pass
		}
		p, err := suitePass(ctx, cfg.Par, ptr, c, n)
		if err != nil {
			return err
		}
		p.Traced = ptr != nil
		rep.Passes = append(rep.Passes, p)
	}
	rep.WindowS = since(window)
	rep.Spans = tr.Spans()
	if rep.VmHWMKB, err = vmHWMKB("self"); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// suiteChecker holds the expected pass output: the golden
// accuracy+ablation text, and every other experiment's text from the
// first pass.
type suiteChecker struct {
	golden []byte
	ref    map[string][]byte
}

// check compares one pass's results with the expected output and reports
// the first difference on standard error.
func (c *suiteChecker) check(results []experiments.Result) bool {
	byID := map[string]experiments.Result{}
	texts := map[string][]byte{}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: suite: %s failed: %v\n", r.Experiment.ID, r.Err)
			return false
		}
		var b bytes.Buffer
		if err := experiments.WriteText(&b, []experiments.Result{r}); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: suite: rendering %s: %v\n", r.Experiment.ID, err)
			return false
		}
		byID[r.Experiment.ID] = r
		texts[r.Experiment.ID] = b.Bytes()
	}
	var b bytes.Buffer
	if err := experiments.WriteText(&b, []experiments.Result{byID["accuracy"], byID["ablation"]}); err != nil ||
		!bytes.Equal(b.Bytes(), c.golden) {
		fmt.Fprintf(os.Stderr, "perfbench: suite: accuracy+ablation text differs from %s\n", goldenPath)
		return false
	}
	if c.ref == nil {
		c.ref = texts
		return true
	}
	for id, t := range texts {
		if id != "accuracy" && id != "ablation" && !bytes.Equal(t, c.ref[id]) {
			fmt.Fprintf(os.Stderr, "perfbench: suite: %s output differs from the first pass\n", id)
			return false
		}
	}
	return len(texts) == len(c.ref)
}

// suitePass runs one cold pass over every experiment and checks it. Wall
// and CPU time cover the cache reset and the run, not the check.
func suitePass(ctx context.Context, par int, tr *Tracer, c *suiteChecker, op uint64) (passReport, error) {
	root, start := tr.Begin()
	cpu0, err := processCPU()
	if err != nil {
		return passReport{}, err
	}
	id, t := tr.Begin()
	experiments.ResetCaches()
	tr.End(id, root, op, "experiments.ResetCaches", t)
	id, t = tr.Begin()
	results := experiments.Run(ctx, experiments.All(), experiments.Options{Par: par})
	tr.End(id, root, op, "experiments.Run", t)
	wall := since(start)
	cpu1, err := processCPU()
	if err != nil {
		return passReport{}, err
	}
	id, t = tr.Begin()
	ok := c.check(results)
	tr.End(id, root, op, "check.suite_outputs", t)
	tr.End(root, 0, op, "suite.pass", start)
	return passReport{WallS: wall, CPUS: cpu1 - cpu0, OK: ok}, nil
}

// processCPU returns this process's user+system CPU seconds.
func processCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}
