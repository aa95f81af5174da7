package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (or around the callback the layer makes). Spans of one operation share
// Op; Parent names the span of the same operation that caused this one (""
// for the operation's root span, which runs from its due time to its
// completion).
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run. Only every every-th operation id is
// traced, so a 32-member flood does not fill memory with spans.
type tracer struct {
	t0    time.Time
	every uint64
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer(every uint64) *tracer {
	t := &tracer{t0: time.Now(), every: every}
	t.on.Store(true)
	return t
}

// sampled reports whether spans of op are recorded.
func (t *tracer) sampled(op uint64) bool {
	return t != nil && t.on.Load() && op%t.every == 0
}

func (t *tracer) add(op uint64, name, parent string, start, end time.Time) {
	if t.sampled(op) {
		t.event(op, name, parent, start, end)
	}
}

// event records a span of a rare control-plane call (a crash, a join, a
// blocking probe) whatever its id, while the tracer is on.
func (t *tracer) event(op uint64, name, parent string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{Op: op, Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time child spans cover
}

// selfTimes computes per-name totals and self times. A span's children are
// the spans of the same operation whose Parent is its name; its self time is
// its duration minus the union of its children's intervals clipped to it.
// For an operation's root span that remainder is the time the operation
// spent waiting outside every traced call (queues, network, ordering).
func selfTimes(spans []span) map[string]layerTime {
	byOp := map[uint64][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	out := map[string]layerTime{}
	for _, group := range byOp {
		for _, s := range group {
			var kids [][2]int64
			for _, c := range group {
				if c.Parent == s.Name && c.Name != s.Name {
					kids = append(kids, [2]int64{c.Start, c.End})
				}
			}
			dur := s.End - s.Start
			lt := out[s.Name]
			lt.Count++
			lt.Total += time.Duration(dur)
			lt.Self += time.Duration(dur - covered(kids, s.Start, s.End))
			out[s.Name] = lt
		}
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur, end := int64(0), int64(-1) // current merged interval [cur, end)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > end {
			if end > cur {
				total += end - cur
			}
			cur, end = a, b
		} else if b > end {
			end = b
		}
	}
	if end > cur {
		total += end - cur
	}
	return total
}

// writeTrace writes the spans and their per-layer self times to path.
func writeTrace(path string, spans []span, self map[string]layerTime) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"self": self, "spans": len(spans)}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return f.Close()
}
