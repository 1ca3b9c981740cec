package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public entry point.  Spans of one operation share Op, the id of the
// operation's root span; Parent is 0 on a root.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, so untraced runs pay one nil check per span site.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.  A nil *active belongs to a nil tracer.
type active struct {
	t     *tracer
	span  Span
	start time.Time
}

// begin opens a span; a nil parent makes it the root of a new operation.
func (t *tracer) begin(parent *active, name string) *active {
	if t == nil {
		return nil
	}
	a := &active{t: t, span: Span{ID: t.next.Add(1), Name: name}, start: time.Now()}
	a.span.Op = a.span.ID
	if parent != nil {
		a.span.Parent, a.span.Op = parent.span.ID, parent.span.Op
	}
	a.span.Start = a.start.Sub(t.t0).Nanoseconds()
	return a
}

// beginRemote opens a span whose parent is named by a "<span>/<op>" header
// value; it records nothing on a nil tracer or a missing header.
func (t *tracer) beginRemote(header, name string) *active {
	if t == nil || header == "" {
		return nil
	}
	idS, opS, _ := strings.Cut(header, "/")
	id, err1 := strconv.ParseUint(idS, 10, 64)
	op, err2 := strconv.ParseUint(opS, 10, 64)
	if err1 != nil || err2 != nil {
		return nil
	}
	a := t.begin(nil, name)
	a.span.Parent, a.span.Op = id, op
	return a
}

// end closes the span with an optional note and returns its duration.
func (a *active) end(note string) time.Duration {
	if a == nil {
		return 0
	}
	now := time.Now()
	a.span.End = now.Sub(a.t.t0).Nanoseconds()
	a.span.Note = note
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.span)
	a.t.mu.Unlock()
	return now.Sub(a.start)
}

// Spans returns a copy of the recorded spans in start order.
func (t *tracer) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []Span) map[uint64]time.Duration {
	children := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanFile is the traced run's output file.
type spanFile struct {
	Stamp    stamp              `json:"stamp"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms_total"`
	Overhead map[string]float64 `json:"tracing_overhead"`
	Spans    []Span             `json:"spans"`
}

func writeSpanFile(path string, f *spanFile) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
