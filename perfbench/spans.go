package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent is the enclosing span's id, or -1 for an operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; they are written out
// once, when the run ends. A nil *tracer records nothing, so untraced code
// paths call the same methods at the cost of a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named after the layer being called and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// selfTime sums the self time of every span named name — its duration
// minus the part of it its children cover (children of concurrent callers
// may overlap, so their union is subtracted, not their sum) — and counts
// those spans.
func (t *tracer) selfTime(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, lo, hi := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			if k.Start > hi {
				covered += hi - lo
				lo, hi = k.Start, k.End
			} else if k.End > hi {
				hi = k.End
			}
		}
		covered += hi - lo
		total += time.Duration(s.End - s.Start - covered)
		n++
	}
	return total, n
}

// write stores the spans and the run's stamp as one JSON document.
func (t *tracer) write(path string, st stamp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
