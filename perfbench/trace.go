package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no instrumentation). Spans of
// one operation share Op; Parent is the enclosing span's ID, 0 for a root.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory; they are written out only when the run
// ends, so recording costs two clock reads and an append. A nil *Tracer
// records nothing, which is how untraced runs call the same code.
type Tracer struct {
	epoch time.Time
	spans []Span
}

// NewTracer returns an empty tracer whose span times count from now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// Start opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Start(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(t.epoch)})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch)
}

// Fork returns an empty tracer on the same epoch, for one goroutine;
// merge its spans back with merge once the goroutine has finished.
func (t *Tracer) Fork() *Tracer {
	return &Tracer{epoch: t.epoch, spans: make([]Span, 0, 1<<12)}
}

// merge appends f's spans, renumbering their IDs and parents.
func (t *Tracer) merge(f *Tracer) {
	base := len(t.spans)
	for _, s := range f.spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// Spans returns the recorded spans in start order.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteJSON writes every span as one JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.spans)
}

// SelfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its child spans.
// Overlapping children (parallel calls) are merged before subtracting, so
// self time is never negative.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, v := range iv {
		if v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// Durations returns the durations of every span with the given name.
func Durations(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// Total sums the durations of every span with the given name.
func Total(spans []Span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}
