// Package trace is the benchmark's traced run: it replays a workload's
// requests in process through the public functions of korapi, kor,
// internal/core, internal/apsp and internal/graph, records a span around each
// call into a layer, and turns the spans into per-layer metrics.
package trace

import (
	"cmp"
	"slices"
	"time"
)

// Span is one timed call into a layer. Spans of one request share Request;
// set-up spans have Request -1.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Recorder keeps spans in memory until the run ends. It is used from one
// goroutine.
type Recorder struct {
	base  time.Time
	spans []Span
}

// NewRecorder starts the recorder's clock.
func NewRecorder() *Recorder { return &Recorder{base: time.Now()} }

// Begin opens a span and returns its id.
func (r *Recorder) Begin(name string, parent, request int) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name, StartNS: r.now()})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) { r.spans[id].EndNS = r.now() }

// Add records an already measured span: an aggregate of many short calls
// laid out from start, such as every oracle lookup of one search.
func (r *Recorder) Add(name string, parent, request int, start int64, d time.Duration) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name, StartNS: start, EndNS: start + int64(d)})
	return id
}

func (r *Recorder) now() int64 { return int64(time.Since(r.base)) }

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfTimes returns each span's duration minus the part of its interval its
// children cover, indexed by span id.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]Span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b Span) int { return cmp.Compare(a.StartNS, b.StartNS) })
		covered := int64(0)
		end := s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, end), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}
