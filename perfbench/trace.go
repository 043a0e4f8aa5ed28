package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one operation (a suite pass, a request,
// a probe) share Op; Parent is the ID of the span that caused this one
// (0 for a root).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []Span
}

// NewTracer returns a recorder whose timestamps count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// ID allocates a span ID.
func (t *Tracer) ID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// Begin opens a span and returns its ID and start; End closes it.
func (t *Tracer) Begin() (id uint64, start time.Time) {
	return t.ID(), time.Now()
}

// End records a span opened by Begin.
func (t *Tracer) End(id, parent, op uint64, name string, start time.Time) {
	t.Record(id, parent, op, name, start, time.Now())
}

// Record stores a span whose ends were measured by the caller. id 0
// allocates a fresh ID.
func (t *Tracer) Record(id, parent, op uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// Merge adopts spans recorded elsewhere (a worker process), renumbering
// their IDs into this recorder's space and shifting them by offset.
func (t *Tracer) Merge(spans []Span, offset time.Duration) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	remap := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		t.next++
		remap[s.ID] = t.next
	}
	for _, s := range spans {
		s.ID = remap[s.ID]
		s.Parent = remap[s.Parent]
		s.Start += offset.Nanoseconds()
		s.End += offset.Nanoseconds()
		t.spans = append(t.spans, s)
	}
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is the per-name aggregate of a trace: call count, total
// time and self time (duration minus the part covered by child spans).
type spanSummary struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// Summarize aggregates spans by name. Child coverage is clipped to the
// parent's interval and overlapping children are merged, so self time is
// never negative.
func Summarize(spans []Span) []spanSummary {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*spanSummary{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		d := time.Duration(s.End - s.Start)
		a.Total += d
		a.Self += d - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	out := make([]spanSummary, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum, cur int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// PrintSummary writes the per-name span table.
func PrintSummary(w io.Writer, spans []Span) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range Summarize(spans) {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", s.Name, s.Count,
			float64(s.Total)/1e6, float64(s.Self)/1e6)
	}
}
