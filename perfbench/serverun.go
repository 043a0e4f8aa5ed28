package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/sim"
)

// checksPerKind bounds the output check: this many requests of each kind
// (pairs, for burst and sweep) are recomputed in process.
const checksPerKind = 6

// serveSegments is how many fresh timelyd processes a serve run boots,
// one after another. Each is timed from exec until warm, then measured
// for its share of the run's seconds; set-up time and peak RSS are the
// medians over the processes, request samples and counters are pooled.
const serveSegments = 5

// loadFunc runs one segment's share of the load against base.
type loadFunc func(ctx context.Context, base string, segment int) ([]sample, []float64, time.Duration, error)

// runServeShared measures the open-loop workload the batching layer
// exists for: hot repeats answered from the result cache, burst pairs
// folded by singleflight, and sweep pairs fused by the gather window.
func runServeShared(ctx context.Context, cfg config, tr *Tracer) (*outcome, error) {
	hot := sharedHot()
	ops := sharedOps(cfg.Seed, cfg.Seconds, hot)
	share := time.Duration(cfg.Seconds) * time.Second / serveSegments
	return runServe(ctx, cfg, tr, hot, func(ctx context.Context, base string, segment int) ([]sample, []float64, time.Duration, error) {
		lo, hi := time.Duration(segment)*share, time.Duration(segment+1)*share
		var seg []*op
		for _, o := range ops {
			if o.At >= lo && o.At < hi {
				c := *o
				c.At -= lo
				seg = append(seg, &c)
			}
		}
		samples, late, window := openLoop(ctx, base, seg, cfg.Par, tr)
		return samples, late, window, ctx.Err()
	})
}

// runServeUnique measures the bypass workload: nproc closed-loop clients,
// every request distinct, so nothing hits the cache or coalesces.
func runServeUnique(ctx context.Context, cfg config, tr *Tracer) (*outcome, error) {
	// Over 3× the ~45 requests/s two clients complete here.
	ops := uniqueOps(cfg.Seed, 150*cfg.Seconds)
	share := time.Duration(cfg.Seconds) * time.Second / serveSegments
	return runServe(ctx, cfg, tr, uniqueWarm(), func(ctx context.Context, base string, segment int) ([]sample, []float64, time.Duration, error) {
		samples, window, err := closedLoop(ctx, base, ops, cfg.Par, share, tr)
		ops = ops[len(samples):]
		return samples, nil, window, err
	})
}

// runServe is the shared harness of both serve workloads. For each
// segment it boots and warms a fresh daemon, scrapes its counters and CPU
// time around the load, reads its peak RSS and stops it; then it checks a
// sample of the responses against in-process evaluation.
func runServe(ctx context.Context, cfg config, tr *Tracer, warmBodies [][]byte, drive loadFunc) (*outcome, error) {
	var samples []sample
	var late, setups, rss []float64
	var window time.Duration
	cpu := 0.0
	counters := map[string]float64{}
	steal, ticks := 0.0, 0.0
	for seg := 0; seg < serveSegments; seg++ {
		d, setup, err := bootWarm(ctx, cfg, tr, warmBodies, seg)
		if err != nil {
			return nil, err
		}
		m, err := measureSegment(ctx, d, drive, seg)
		if stopErr := d.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		var lat []float64
		for i := range m.samples {
			lat = append(lat, m.samples[i].latencyMS())
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: segment %d: set-up %.3f s, %d requests, p50 %.3f ms, p99 %.3f ms, cpu %.2f s, peak RSS %.1f MB, steal %.1f %%\n",
			cfg.Workload, seg, setup, len(m.samples), median(lat), percentile(lat, 99), m.cpuS, m.rssMB, 100*m.steal/m.ticks)
		steal += m.steal
		ticks += m.ticks
		setups = append(setups, setup)
		rss = append(rss, m.rssMB)
		samples = append(samples, m.samples...)
		late = append(late, m.late...)
		window += m.window
		cpu += m.cpuS
		for k, v := range m.counters {
			counters[k] += v
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: set-ups %.3f s, peak RSS %.1f MB\n", cfg.Workload, setups, rss)

	mismatched := checkSamples(ctx, samples, tr)
	out := summarize(cfg, samples, late, window.Seconds(), mismatched)
	out.E2E["setup_s"] = median(setups)
	out.E2E["peak_rss_mb"] = median(rss)
	if ok := out.Attempted - out.Failed; ok > 0 {
		out.E2E["cpu_ms_per_op"] = cpu / float64(ok) * 1000
	}
	if tr != nil {
		addServerCounters(out.Layer, counters)
		out.Layer["host.steal_pct"] = 100 * steal / ticks
	}
	logKinds(cfg.Workload, samples)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests, %d failed, %d mismatched, window %.2f s\n",
		cfg.Workload, out.Attempted, out.Failed, len(mismatched), window.Seconds())
	return out, nil
}

// segment is what one daemon's measured share produced.
type segment struct {
	samples []sample
	late    []float64
	window  time.Duration
	cpuS    float64
	rssMB   float64
	// steal and ticks are the machine's stolen and total CPU ticks over
	// the window.
	steal, ticks float64
	counters     map[string]float64 // /metricz deltas
}

// measureSegment drives one warmed daemon and reads its counters, CPU
// time and peak RSS around the load.
func measureSegment(ctx context.Context, d *daemon, drive loadFunc, seg int) (*segment, error) {
	hc := newConn()
	defer hc.CloseIdleConnections()
	before, err := d.metricz(hc)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	steal0, ticks0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	samples, late, window, err := drive(ctx, d.base, seg)
	if err != nil {
		return nil, err
	}
	steal1, ticks1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	after, err := d.metricz(hc)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := d.alive(); err != nil {
		return nil, err
	}
	m := &segment{samples: samples, late: late, window: window, cpuS: cpu1 - cpu0, rssMB: rss,
		steal: steal1 - steal0, ticks: ticks1 - ticks0, counters: map[string]float64{}}
	for k, v := range after {
		m.counters[k] = v - before[k]
	}
	return m, nil
}

// summarize turns the samples into the end-to-end metrics and the
// client-side per-layer metrics.
func summarize(cfg config, samples []sample, late []float64, window float64, mismatched map[int]bool) *outcome {
	out := &outcome{Attempted: len(samples), E2E: metrics{}, Layer: metrics{}}
	var lat, tracedLat, untracedLat, compute, overhead []float64
	kinds := map[string][]float64{}
	hits := 0
	for i := range samples {
		s := &samples[i]
		if !s.Reply.ok() || mismatched[i] {
			out.Failed++
			if !s.Reply.ok() {
				fmt.Fprintf(os.Stderr, "perfbench: %s failed: status %d %v %s\n",
					describe(s.Op.Body), s.Reply.Status, s.Reply.Err, s.Reply.Body)
			}
		}
		l := s.latencyMS()
		lat = append(lat, l)
		kinds[s.Op.Kind] = append(kinds[s.Op.Kind], l)
		if s.Op.Traced {
			tracedLat = append(tracedLat, l)
		} else {
			untracedLat = append(untracedLat, l)
		}
		switch s.Reply.CacheStatus {
		case "hit":
			hits++
		case "miss":
			if ms, ok := elapsedOf(s.Reply.Body); ok {
				compute = append(compute, ms)
				overhead = append(overhead, float64(s.Done.Sub(s.Sent))/1e6-ms)
			}
		}
	}
	out.Correct = out.Failed == 0
	out.E2E["latency_p50_ms"] = median(lat)
	out.E2E["latency_p99_ms"] = percentile(lat, 99)
	out.E2E["goodput_rps"] = float64(out.Attempted-out.Failed) / window
	if cfg.Trace {
		out.Layer["error_rate"] = float64(out.Failed) / float64(max(out.Attempted, 1))
		out.Layer["trace.overhead_pct"] = overheadPct(tracedLat, untracedLat)
		out.Layer["batchq.hit_ratio"] = float64(hits) / float64(max(len(samples), 1))
		out.Layer["timelyd.compute_ms"] = median(compute)
		out.Layer["timelyd.overhead_ms"] = median(overhead)
		for k, v := range kinds {
			out.Layer["kind."+k+"_p50_ms"] = median(v)
		}
		if late != nil {
			out.Layer["gen.late_p99_ms"] = percentile(late, 99)
		}
	}
	return out
}

// addServerCounters books the pooled /metricz deltas of the measured
// windows.
func addServerCounters(m metrics, delta map[string]float64) {
	m["batchq.coalesced"] = delta["coalesced_requests"]
	m["batchq.batches"] = delta["batches"]
	m["batchq.mean_batch"] = 0
	if b := delta["batches"]; b > 0 {
		m["batchq.mean_batch"] = delta["batched_requests"] / b
	}
	m["batchq.evictions"] = delta["cache_evictions"]
	m["serve.admitted"] = delta["admitted"]
	m["serve.queue_wait_ms"] = 0
	if a := delta["admitted"]; a > 0 {
		m["serve.queue_wait_ms"] = delta["queue_wait_ms"] / a
	}
	m["serve.shed"] = delta["shed_total"]
}

// checkSamples recomputes a deterministic sample of each kind in process
// with sim.Evaluate and compares it with the response, elapsed_ms aside.
// It returns the indexes of the samples that differ.
func checkSamples(ctx context.Context, samples []sample, tr *Tracer) map[int]bool {
	picked := pickChecks(samples)
	bad := map[int]bool{}
	for n, i := range picked {
		s := &samples[i]
		if !s.Reply.ok() {
			continue
		}
		op := uint64(1<<32 + n) // past every request's op id
		root, start := tr.Begin()
		ok, err := matchesInProcess(ctx, s.Op.Body, s.Reply.Body, tr, root, op)
		tr.End(root, 0, op, "check.response", start)
		if err != nil || !ok {
			fmt.Fprintf(os.Stderr, "perfbench: response to %s differs from in-process sim.Evaluate (%v)\n",
				describe(s.Op.Body), err)
			bad[i] = true
		}
	}
	return bad
}

// pickChecks selects, per kind, up to checksPerKind requests spread evenly
// over the run: every hot body's first response, and both members of the
// chosen burst and sweep pairs.
func pickChecks(samples []sample) []int {
	byKind := map[string][]int{}
	pairs := map[string][]int{}
	for i := range samples {
		s := &samples[i]
		switch {
		case s.Op.Kind == "hot":
			if s.Op.Keep {
				byKind["hot"] = append(byKind["hot"], i)
			}
		case s.Op.Pair >= 0:
			if ps := pairs[s.Op.Kind]; len(ps) == 0 || samples[ps[len(ps)-1]].Op.Pair != s.Op.Pair {
				pairs[s.Op.Kind] = append(ps, i)
			}
		default:
			byKind[s.Op.Kind] = append(byKind[s.Op.Kind], i)
		}
	}
	var out []int
	for kind, idx := range byKind {
		if kind == "hot" {
			out = append(out, idx...)
			continue
		}
		out = append(out, spread(idx)...)
	}
	for _, first := range pairs {
		for _, i := range spread(first) {
			for j := i; j < len(samples) && samples[j].Op.Pair == samples[i].Op.Pair; j++ {
				out = append(out, j)
			}
		}
	}
	sort.Ints(out)
	return out
}

// spread picks up to checksPerKind evenly spaced entries.
func spread(idx []int) []int {
	if len(idx) <= checksPerKind {
		return idx
	}
	out := make([]int, checksPerKind)
	for k := range out {
		out[k] = idx[k*len(idx)/checksPerKind]
	}
	return out
}

// matchesInProcess evaluates the request body in process and compares the
// result with the served body, both re-encoded with elapsed_ms zeroed.
func matchesInProcess(ctx context.Context, reqBody, served []byte, tr *Tracer, parent, op uint64) (bool, error) {
	var req sim.EvalRequest
	dec := json.NewDecoder(bytes.NewReader(reqBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return false, err
	}
	id, start := tr.Begin()
	want, err := sim.Evaluate(ctx, &req)
	tr.End(id, parent, op, "sim.Evaluate", start)
	if err != nil {
		return false, err
	}
	var got sim.EvalResult
	dec = json.NewDecoder(bytes.NewReader(served))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		return false, fmt.Errorf("decoding the response: %w", err)
	}
	got.ElapsedMS, want.ElapsedMS = 0, 0
	a, err := json.Marshal(&got)
	if err != nil {
		return false, err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return false, err
	}
	return bytes.Equal(a, b), nil
}
