package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/batchq"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/reram"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/sim"
)

// probeReps is how many timed repetitions each probe makes; it reports
// their median.
const probeReps = 5

// runProbes times calls into each layer's public functions on fixed
// inputs with fixed seeds, in this process, after the workload has
// finished. The simulated statistics they return (fault counts, timing
// commands and makespan) must repeat exactly across repetitions, and the
// experiments probe must reproduce the golden accuracy+ablation text; ok
// is false when one does not. Each probe's spans share the probe's span
// ID as their operation ID.
func runProbes(ctx context.Context, cfg config, tr *Tracer) (metrics, bool, error) {
	m := metrics{}
	ok := true
	for _, p := range []struct {
		name string
		fn   func(context.Context, config, *Tracer, uint64, metrics) (bool, error)
	}{
		{"experiments", probeExperiments},
		{"reram", probeReram},
		{"stats", probePhilox},
		{"timing", probeTiming},
		{"sim", probeSim},
		{"batchq", probeCache},
	} {
		id, start := tr.Begin()
		good, err := p.fn(ctx, cfg, tr, id, m)
		tr.End(id, 0, id, "probe."+p.name, start)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", p.name, err)
		}
		if !good {
			fmt.Fprintf(os.Stderr, "perfbench: probe %s: output differs from its reference or between repetitions\n", p.name)
			ok = false
		}
	}
	return m, ok, nil
}

// timeReps runs fn probeReps times and returns the median duration of
// one call, where each repetition makes calls calls.
func timeReps(tr *Tracer, parent uint64, name string, calls int, fn func() error) (time.Duration, error) {
	var per []float64
	for r := 0; r < probeReps; r++ {
		id, start := tr.Begin()
		for i := 0; i < calls; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		tr.End(id, parent, parent, name, start)
		per = append(per, float64(time.Since(start))/float64(calls))
	}
	return time.Duration(median(per)), nil
}

// probeExperiments runs every experiment alone, cold, at par = nproc:
// the per-experiment cost of a suite pass and its allocation and GC
// totals. The accuracy+ablation text is checked against the golden file.
func probeExperiments(ctx context.Context, cfg config, tr *Tracer, parent uint64, m metrics) (bool, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return false, err
	}
	experiments.ResetCaches()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	byID := map[string]experiments.Result{}
	rest := 0.0
	for _, e := range experiments.All() {
		id, start := tr.Begin()
		r := experiments.Run(ctx, []experiments.Experiment{e}, experiments.Options{Par: cfg.Par})[0]
		tr.End(id, parent, parent, "experiments.Run "+e.ID, start)
		if r.Err != nil {
			return false, fmt.Errorf("%s: %w", e.ID, r.Err)
		}
		byID[e.ID] = r
		switch e.ID {
		case "ablation":
			m["experiments.ablation_s"] = r.Elapsed.Seconds()
		case "accuracy":
			m["experiments.accuracy_s"] = r.Elapsed.Seconds()
		default:
			rest += r.Elapsed.Seconds()
		}
	}
	runtime.ReadMemStats(&ms1)
	m["experiments.rest_s"] = rest
	m["suite.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["suite.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	var b bytes.Buffer
	if err := experiments.WriteText(&b, []experiments.Result{byID["accuracy"], byID["ablation"]}); err != nil {
		return false, err
	}
	return bytes.Equal(b.Bytes(), golden), nil
}

// probeReram times the fault-count draw of one 256×256 crossbar at a 1 %
// stuck-at rate and the 64-vector matrix–matrix dot kernel.
func probeReram(ctx context.Context, cfg config, tr *Tracer, parent uint64, m metrics) (bool, error) {
	const cells, rate, calls = 256 * 256, 0.01, 200
	var totals []int
	var call int
	d, err := timeReps(tr, parent, "reram.CountStuckFaults", calls, func() error {
		if call%calls == 0 {
			totals = append(totals, 0)
		}
		rng := stats.NewTrialRNG(1, uint32(call%calls))
		call++
		fm, err := reram.CountStuckFaults(cells, rate, rng)
		totals[len(totals)-1] += fm.Total()
		return err
	})
	if err != nil {
		return false, err
	}
	m["reram.count_stuck_faults_us"] = float64(d) / 1e3
	m["reram.stuck_faults"] = float64(totals[0])

	x, scaled := dotInputs()
	const nvec = 64
	rows := x.B
	out := make([]float64, nvec*x.B)
	var sums []float64
	d, err = timeReps(tr, parent, "reram.DotColumnsBatch", 20, func() error {
		x.DotColumnsBatch(scaled, nvec, rows, rows, 0, x.B, out, x.B)
		s := 0.0
		for _, v := range out {
			s += v
		}
		sums = append(sums, s)
		return nil
	})
	if err != nil {
		return false, err
	}
	m["reram.dot_columns_batch_us"] = float64(d) / 1e3
	return allEqual(totals) && allEqual(sums), nil
}

// dotInputs programs a 256×256, 4-bit crossbar with fixed random levels
// and 2 % device variation, and 64 identical scaled input vectors.
func dotInputs() (*reram.Crossbar, []float64) {
	rng := stats.NewRNG(7)
	x := reram.New(256, 4)
	for r := 0; r < x.B; r++ {
		for c := 0; c < x.B; c++ {
			if err := x.Program(r, c, uint8(rng.Intn(int(x.MaxLevel())+1))); err != nil {
				panic(err) // levels are drawn inside the valid range
			}
		}
	}
	x.ApplyVariation(0.02, rng)
	scaled := make([]float64, 64*x.B)
	for i := 0; i < x.B; i++ {
		v := float64(rng.Intn(256))
		for k := 0; k < 64; k++ {
			scaled[k*x.B+i] = v
		}
	}
	return x, scaled
}

// probePhilox times the counter-based bit source.
func probePhilox(ctx context.Context, cfg config, tr *Tracer, parent uint64, m metrics) (bool, error) {
	const draws = 1 << 20
	var sums []uint64
	d, err := timeReps(tr, parent, "stats.RNG.Uint64", 1, func() error {
		r := stats.NewTrialRNG(1, 0)
		var s uint64
		for i := 0; i < draws; i++ {
			s += r.Uint64()
		}
		sums = append(sums, s)
		return nil
	})
	if err != nil {
		return false, err
	}
	m["stats.philox_ns"] = float64(d) / draws
	return allEqual(sums), nil
}

// probeTiming times the event-driven engine on MSRA-1 at the Table II
// design point with 16 images.
func probeTiming(ctx context.Context, cfg config, tr *Tracer, parent uint64, m metrics) (bool, error) {
	n, err := model.ByName("MSRA-1")
	if err != nil {
		return false, err
	}
	var cmds, makespans []float64
	d, err := timeReps(tr, parent, "timing.Simulate", 1, func() error {
		res, err := timing.Simulate(ctx, n, params.DefaultTimely(8), timing.Options{Images: 16}, nil)
		if err != nil {
			return err
		}
		cmds = append(cmds, float64(res.Commands))
		makespans = append(makespans, float64(res.MakespanPS)/res.CycleTimePS)
		return nil
	})
	if err != nil {
		return false, err
	}
	m["timing.simulate_ms"] = float64(d) / 1e6
	m["timing.commands"] = cmds[0]
	m["timing.cmds_per_s"] = cmds[0] / d.Seconds()
	m["timing.makespan_cycles"] = makespans[0]
	return allEqual(cmds) && allEqual(makespans), nil
}

// probeSim times in-process sim.Evaluate on one fixed request of each
// serve-unique kind, and EvalRequest.Keys on the serve-shared hot bodies.
func probeSim(ctx context.Context, cfg config, tr *Tracer, parent uint64, m metrics) (bool, error) {
	for _, p := range []struct {
		metric string
		body   []byte
	}{
		{"sim.eval_mlp_ms", body(map[string]any{"backend": "functional", "network": "mlp", "trials": 2, "noise_ps": 4.5})},
		{"sim.eval_cnn_ms", body(map[string]any{"backend": "functional", "network": "cnn", "trials": 2, "fault_rate": 0.002})},
		{"sim.eval_timing_ms", body(map[string]any{"backend": "timing", "network": "VGG-3", "images": 10, "gamma": 16})},
		{"sim.eval_analytic_ms", body(map[string]any{"backend": "timely", "network": "ResNet-50", "gamma": 4})},
	} {
		var req sim.EvalRequest
		if err := json.Unmarshal(p.body, &req); err != nil {
			return false, err
		}
		if _, err := sim.Evaluate(ctx, &req); err != nil { // trains the classifier once
			return false, err
		}
		d, err := timeReps(tr, parent, "sim.Evaluate", 1, func() error {
			_, err := sim.Evaluate(ctx, &req)
			return err
		})
		if err != nil {
			return false, err
		}
		m[p.metric] = float64(d) / 1e6
	}

	reqs := hotRequests()
	i := 0
	d, err := timeReps(tr, parent, "sim.EvalRequest.Keys", 2000, func() error {
		_, _, err := reqs[i%len(reqs)].Keys()
		i++
		return err
	})
	if err != nil {
		return false, err
	}
	m["sim.keys_us"] = float64(d) / 1e3
	return true, nil
}

// hotRequests decodes the serve-shared hot bodies.
func hotRequests() []*sim.EvalRequest {
	var reqs []*sim.EvalRequest
	for _, b := range sharedHot() {
		var r sim.EvalRequest
		if err := json.Unmarshal(b, &r); err != nil {
			panic(err) // the hot bodies are literals of the request type
		}
		reqs = append(reqs, &r)
	}
	return reqs
}

// probeCache times a hit in a full result cache of timelyd's default
// size, keyed like real cache keys.
func probeCache(ctx context.Context, cfg config, tr *Tracer, parent uint64, m metrics) (bool, error) {
	const entries = 4096
	c := batchq.NewCache[[]byte](entries)
	base, _, err := hotRequests()[0].Keys()
	if err != nil {
		return false, err
	}
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s/%d", base, i)
		c.Put(keys[i], []byte{byte(i)})
	}
	i, hits := 0, 0
	d, err := timeReps(tr, parent, "batchq.Cache.Get", 1<<18, func() error {
		if _, ok := c.Get(keys[(i*7919)%entries]); ok {
			hits++
		}
		i++
		return nil
	})
	if err != nil {
		return false, err
	}
	m["batchq.cache_get_ns"] = float64(d)
	return hits == i, nil
}

// allEqual reports whether every element equals the first.
func allEqual[T comparable](xs []T) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
