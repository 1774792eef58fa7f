package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Parent is the id of the enclosing span (0 for a
// phase span); Req groups the spans of one request or repetition.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, req int64, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover. Overlapping children (concurrent calls) count
// once, and the parts of children outside the parent are ignored.
func selfTime(spans []span, id int) int64 {
	var parent span
	var kids [][2]int64
	for _, s := range spans {
		if s.ID == id {
			parent = s
		}
	}
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			kids = append(kids, [2]int64{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, k := range kids {
		if k[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = k[0], k[1]
		} else if k[1] > curHi {
			curHi = k[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// totalDur sums the durations of the spans named name.
func totalDur(spans []span, name string) int64 {
	total := int64(0)
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
		}
	}
	return total
}

// durations lists the durations, in seconds, of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e9)
		}
	}
	return out
}
