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

// span is one timed call into a layer. Parent 0 marks a root span;
// spans of one request or job share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent, req int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	calls int
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time covered by child spans
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the durations of its direct children; children of one
// span never overlap because each parent issues its calls in sequence.
func selfTimes(spans []span) map[string]*layerTime {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.calls++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// checkSpans reports the first malformed span: unclosed, reversed, a
// dangling parent, a child outside its parent's interval, or negative
// self time.
func checkSpans(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts or never ended", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	for name, lt := range selfTimes(spans) {
		if lt.self < 0 {
			return fmt.Errorf("layer %s has negative self time %v", name, lt.self)
		}
	}
	return nil
}

// printSelfTable writes the per-layer self-time table, largest first.
func printSelfTable(w io.Writer, spans []span) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	var all time.Duration
	for n, lt := range st {
		names = append(names, n)
		all += lt.self
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	fmt.Fprintf(w, "# %-32s %8s %12s %7s\n", "layer", "calls", "self_ms", "share")
	for _, n := range names {
		lt := st[n]
		fmt.Fprintf(w, "# %-32s %8d %12.3f %6.1f%%\n", n, lt.calls, millis(lt.self), 100*float64(lt.self)/float64(all))
	}
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
