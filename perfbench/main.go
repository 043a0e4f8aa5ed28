// Command perfbench is the repository benchmark: one run of one workload
// against the simulator built from this tree, printing every metric as one
// JSON line. Run it through run.sh, which builds it and timelyd first:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 25 --trace 0
//
// Workloads (see README.md for the metric → layer → end-to-end map):
//
//	suite         closed loop of full `timely all` passes in child processes
//	serve-shared  open loop against a fresh timelyd: hot hits, burst and sweep pairs
//	serve-unique  closed loop against a fresh timelyd: every request distinct
//
// With -trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it records spans around every call into the program and
// reports the per-layer metrics instead. A run that finds a wrong output
// still prints its result, with "correct": false.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// config is one run's parameters.
type config struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	Timelyd  string // timelyd binary built from the tree
	Out      string // scratch directory inside the checkout
	Par      int    // nproc: suite parallelism, client and connection count
}

// metrics maps metric names to values; units come from BENCHMARK.json.
type metrics map[string]float64

// outcome is what a workload run hands back to main.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	E2E       metrics // end-to-end metrics (untraced runs)
	Layer     metrics // per-layer metrics (traced runs)
}

func main() {
	var cfg config
	var trace int
	role := flag.String("role", "", "internal: suite-worker runs suite passes in a child process")
	share := flag.Duration("share", 0, "internal: how long a suite worker measures")
	flag.StringVar(&cfg.Workload, "workload", "", "suite, serve-shared or serve-unique")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.Seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.Timelyd, "timelyd", "", "timelyd binary built from the tree")
	flag.StringVar(&cfg.Out, "out", ".bench_build", "directory for logs and traces")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.Par = runtime.NumCPU()

	if *role == "suite-worker" {
		if err := suiteWorker(cfg, *share); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.Seconds < 1 {
		return fmt.Errorf("-seconds must be positive, got %d", cfg.Seconds)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer()
	}
	var out *outcome
	switch cfg.Workload {
	case "suite":
		out, err = runSuite(ctx, cfg, tr)
	case "serve-shared":
		out, err = runServeShared(ctx, cfg, tr)
	case "serve-unique":
		out, err = runServeUnique(ctx, cfg, tr)
	default:
		return fmt.Errorf("unknown -workload %q (want suite, serve-shared or serve-unique)", cfg.Workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.Workload, err)
	}

	want, got := spec.EndToEnd, out.E2E
	if cfg.Trace {
		probes, ok, err := runProbes(ctx, cfg, tr)
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		if !ok {
			out.Correct = false
		}
		for k, v := range probes {
			out.Layer[k] = v
		}
		for _, name := range notExercised(cfg.Workload) {
			if _, dup := out.Layer[name]; dup {
				return fmt.Errorf("metric %s is both measured and marked not exercised", name)
			}
			out.Layer[name] = 0
		}
		path := filepath.Join(cfg.Out, fmt.Sprintf("trace-%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := tr.WriteFile(path); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.Spans()), path)
		PrintSummary(os.Stderr, tr.Spans())
		want, got = spec.PerLayer, out.Layer
	}
	res, err := newResult(want, got)
	if err != nil {
		return err
	}
	res.Correct = out.Correct && out.Failed == 0
	res.Attempted, res.Failed = out.Attempted, out.Failed
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// benchSpec is the part of BENCHMARK.json the run checks itself against.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult pairs the measured values with the declared units and
// insists the run measured exactly the declared metrics.
func newResult(want []metricSpec, got metrics) (*result, error) {
	res := &result{Metrics: make(map[string]metricValue, len(want))}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(got) != len(want) {
		for name := range got {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
			}
		}
	}
	return res, nil
}

// since reports seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// notExercised lists the per-layer metrics a workload does not reach: the
// suite starts no server, and each serve workload sends only its own
// request kinds. They read 0 in that workload's traced run.
func notExercised(workload string) []string {
	kinds := func(ks ...string) []string {
		var out []string
		for _, k := range ks {
			out = append(out, "kind."+k+"_p50_ms")
		}
		return out
	}
	switch workload {
	case "suite":
		return append([]string{
			"batchq.hit_ratio", "batchq.coalesced", "batchq.batches", "batchq.mean_batch", "batchq.evictions",
			"serve.admitted", "serve.queue_wait_ms", "serve.shed",
			"timelyd.compute_ms", "timelyd.overhead_ms", "gen.late_p99_ms",
		}, kinds("hot", "burst", "sweep", "mlp", "cnn", "timing", "analytic")...)
	case "serve-shared":
		return kinds("mlp", "cnn", "timing", "analytic")
	case "serve-unique":
		return append(kinds("hot", "burst", "sweep"), "gen.late_p99_ms")
	}
	return nil
}
