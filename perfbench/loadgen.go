package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is one request of a serve workload.
type op struct {
	// ID numbers the op within its run; the spans of one request share it.
	ID   uint64
	Kind string
	Body []byte
	// At is the intended send time, as an offset from the schedule start
	// (open loop only).
	At time.Duration
	// Pair numbers the pair a burst or sweep request belongs to; -1 for a
	// single request.
	Pair int
	// Keep retains the response body for the output check and the
	// compute-time breakdown; repeated hot hits drop theirs.
	Keep bool
	// Traced requests record spans. In a traced run every other second of
	// the open-loop schedule (every other request of the closed loop) is
	// traced, so the untraced ones in between measure tracing overhead.
	Traced bool
}

// sample is what the load generator measured for one op.
type sample struct {
	Op                   *op
	Intended, Sent, Done time.Time
	Reply                reply
}

// latencyMS is the request's latency from its intended send time.
func (s *sample) latencyMS() float64 { return float64(s.Done.Sub(s.Intended)) / 1e6 }

// send runs one request on hc and records its spans.
func send(hc *http.Client, base string, s *sample, tr *Tracer) {
	s.Sent = time.Now()
	s.Reply = evaluate(hc, base, s.Op.Body)
	s.Done = time.Now()
	if !s.Op.Keep {
		s.Reply.Body = nil
	}
	if s.Op.Traced && tr != nil {
		root := tr.ID()
		tr.Record(0, root, s.Op.ID, "gen.wait", s.Intended, s.Sent)
		tr.Record(0, root, s.Op.ID, "timelyd.POST /v1/evaluate", s.Sent, s.Done)
		tr.Record(root, 0, s.Op.ID, "request."+s.Op.Kind, s.Intended, s.Done)
	}
}

// openLoop sends ops on their schedule regardless of how the server
// keeps up. Op i goes to sender i mod par, each sender owning one
// connection, so the two members of a pair (consecutive ops) leave on
// different connections at the same instant. A sender sleeps until its
// next op is due and sends it itself, with no hand-off between
// goroutines. Latency counts from the intended time, so a stall charges
// every request it delays. late holds how far behind schedule each send
// started, in ms. When ctx ends early the samples are incomplete; the
// caller checks ctx.
func openLoop(ctx context.Context, base string, ops []*op, par int, tr *Tracer) (samples []sample, late []float64, window time.Duration) {
	samples = make([]sample, len(ops))
	late = make([]float64, len(ops))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newConn()
			defer hc.CloseIdleConnections()
			for i := c; i < len(ops) && ctx.Err() == nil; i += par {
				due := start.Add(ops[i].At)
				sleepUntil(due)
				late[i] = float64(time.Since(due)) / 1e6
				samples[i].Op, samples[i].Intended = ops[i], due
				send(hc, base, &samples[i], tr)
			}
		}()
	}
	wg.Wait()
	return samples, late, lastDone(samples).Sub(start)
}

// closedLoop runs par clients, each sending its next op as soon as the
// previous one completes, for the given duration. Ops are taken in order
// and each is sent once; running out of ops is an error of the generator.
func closedLoop(ctx context.Context, base string, ops []*op, par int, d time.Duration, tr *Tracer) ([]sample, time.Duration, error) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newConn()
			defer hc.CloseIdleConnections()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &samples[i]
				s.Op, s.Intended = ops[i], time.Now()
				send(hc, base, s, tr)
			}
		}()
	}
	wg.Wait()
	n := int(min(next.Load(), int64(len(ops))))
	if n == len(ops) {
		return nil, 0, fmt.Errorf("the closed loop ran out of its %d distinct requests within %v", len(ops), d)
	}
	samples = samples[:n]
	return samples, lastDone(samples).Sub(start), nil
}

// spinWindow is how long before a due time a sender stops sleeping and
// polls the clock instead. Timer wake-ups on Linux run up to about a
// millisecond late, and every late wake-up would add to the latency of
// the request being sent.
const spinWindow = 1500 * time.Microsecond

// sleepUntil returns at t, or as soon after it as the clock allows.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func lastDone(samples []sample) time.Time {
	var t time.Time
	for _, s := range samples {
		if s.Done.After(t) {
			t = s.Done
		}
	}
	return t
}

// logKinds prints per-kind counts and medians to standard error.
func logKinds(workload string, samples []sample) {
	byKind := map[string][]float64{}
	for i := range samples {
		s := &samples[i]
		byKind[s.Op.Kind] = append(byKind[s.Op.Kind], s.latencyMS())
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := byKind[k]
		fmt.Fprintf(os.Stderr, "perfbench: %s: %-9s n=%5d p50 %8.3f ms p99 %8.3f ms\n",
			workload, k, len(v), median(v), percentile(v, 99))
	}
}
