package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program: the name of the call, when it started and ended
// (nanoseconds since the tracer was made), the span that caused it
// (-1 for a root), and the iteration it belongs to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Iter    int    `json:"iter"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how iterations run untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is the parent of a root span and the id a nil tracer returns.
const noSpan = -1

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, iter int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: iter, StartNS: now, EndNS: now})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == noSpan {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return time.Duration(now - t.spans[id].StartNS)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover (overlapping children, such
// as two workers evaluating at once, are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// medianSelfByName reduces a trace to one number per span name: the
// median self time in seconds.
func medianSelfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], self[i].Seconds())
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

func writeTrace(path string, spans []span) error {
	enc, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
