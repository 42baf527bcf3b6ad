package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// DefaultTracerCap is the default number of retained events.
const DefaultTracerCap = 1 << 18

// TracerConfig sizes a Tracer.
type TracerConfig struct {
	// Sample keeps every Sample-th event (0 and 1 mean every event).
	// Per-kind totals are counted before sampling, so Count reports
	// exact figures regardless of the sampling rate.
	Sample uint64
	// Cap bounds the retained event buffer (default DefaultTracerCap).
	// Events past the cap are dropped but still counted.
	Cap int
}

// Tracer is a lock-free pipeline event recorder. Writers reserve a slot
// with one atomic add and publish it with one atomic store; per-kind
// totals are plain atomic counters incremented before sampling, which
// gives the bit-match guarantee the CLI self-check relies on:
// Count(EvCommit) equals committed instructions and Count(EvFold)
// equals folds even when the retained stream is sampled or saturated.
//
// A Tracer is a Clocked EventSink: attach it as cpu.Config.Obs, and
// to the ASBR unit with core.Engine.SetEventSink, to record both
// streams on one cycle axis. It is safe for concurrent emission;
// Events and the Write* methods may run concurrently with emission and
// see every slot published before the call.
type Tracer struct {
	sample uint64
	buf    []traceSlot

	seq     atomic.Uint64 // pre-sampling total
	next    atomic.Uint64 // slot reservation cursor
	dropped atomic.Uint64
	counts  [evKinds]atomic.Uint64

	clock func() uint64
}

type traceSlot struct {
	ev    Event
	ready atomic.Bool
}

// NewTracer builds a tracer with the given sampling rate and capacity.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Sample == 0 {
		cfg.Sample = 1
	}
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultTracerCap
	}
	return &Tracer{sample: cfg.Sample, buf: make([]traceSlot, cfg.Cap)}
}

// SetClock installs a cycle source used to stamp events that arrive
// without a cycle (the ASBR core's BDT/BIT events). Install before
// emission starts; cpu.New does this for a Clocked Config.Obs.
func (t *Tracer) SetClock(fn func() uint64) { t.clock = fn }

// OnEvent records one event. Counting happens before sampling and
// capacity checks, so totals are exact.
func (t *Tracer) OnEvent(e Event) {
	if e.Kind >= evKinds {
		return
	}
	t.counts[e.Kind].Add(1)
	n := t.seq.Add(1) - 1
	if t.sample > 1 && n%t.sample != 0 {
		return
	}
	i := t.next.Add(1) - 1
	if i >= uint64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	s := &t.buf[i]
	e.Seq = n
	if e.Cycle == 0 && t.clock != nil {
		e.Cycle = t.clock()
	}
	s.ev = e
	s.ready.Store(true)
}

// Sample returns the configured sampling rate (≥ 1).
func (t *Tracer) Sample() uint64 { return t.sample }

// Total returns the number of events observed (pre-sampling).
func (t *Tracer) Total() uint64 { return t.seq.Load() }

// Dropped returns the number of sampled-in events lost to the capacity
// bound.
func (t *Tracer) Dropped() uint64 { return t.dropped.Load() }

// Count returns the exact number of events of kind k observed,
// independent of sampling and drops.
func (t *Tracer) Count(k EventKind) uint64 {
	if k >= evKinds {
		return 0
	}
	return t.counts[k].Load()
}

// CountsByKind returns the exact per-kind totals for kinds that
// occurred at least once.
func (t *Tracer) CountsByKind() map[string]uint64 {
	out := make(map[string]uint64)
	for k := EventKind(0); k < evKinds; k++ {
		if n := t.counts[k].Load(); n > 0 {
			out[kindNames[k]] = n
		}
	}
	return out
}

// Retained returns the number of events currently published in the
// buffer.
func (t *Tracer) Retained() int { return len(t.snapshot()) }

// snapshot collects the published slots in sequence order. Concurrent
// writers reserve slots out of order relative to their sequence
// numbers, so the result is sorted by Seq.
func (t *Tracer) snapshot() []Event {
	n := t.next.Load()
	if n > uint64(len(t.buf)) {
		n = uint64(len(t.buf))
	}
	out := make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		if t.buf[i].ready.Load() {
			out = append(out, t.buf[i].ev)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Events returns the retained events in sequence order.
func (t *Tracer) Events() []Event { return t.snapshot() }

// Summary is the trailer record of a JSONL trace: exact pre-sampling
// totals for the whole run.
type Summary struct {
	Total   uint64            `json:"total"`
	Dropped uint64            `json:"dropped"`
	Counts  map[string]uint64 `json:"counts"`
}

// traceHeader is the first line of a JSONL trace.
type traceHeader struct {
	Schema string `json:"schema"`
	Sample uint64 `json:"sample"`
}

// traceTrailer wraps the summary so the last line is self-identifying.
type traceTrailer struct {
	Summary *Summary `json:"summary"`
}

// TraceSchema identifies the JSONL trace format.
const TraceSchema = "asbr-trace/v1"

// WriteJSONL writes the trace as line-delimited JSON: a schema header,
// one line per retained event, and a summary trailer with the exact
// totals.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Schema: TraceSchema, Sample: t.sample}); err != nil {
		return err
	}
	for _, e := range t.snapshot() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	sum := &Summary{Total: t.Total(), Dropped: t.Dropped(), Counts: t.CountsByKind()}
	if err := enc.Encode(traceTrailer{Summary: sum}); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEvent is one trace_event record in the Chrome tracing JSON
// format (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// instant events on one "thread" per event kind, with the machine cycle
// as the microsecond timestamp so chrome://tracing's timeline is the
// cycle axis.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained events in Chrome trace_event
// JSON, loadable by chrome://tracing and Perfetto.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.snapshot()
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, 0, len(evs))}
	for _, e := range evs {
		ce := chromeEvent{
			Name:  e.Kind.String(),
			Phase: "i",
			TS:    e.Cycle,
			PID:   1,
			TID:   int(e.Kind) + 1,
			Scope: "t",
			Args:  map[string]any{"seq": e.Seq},
		}
		if e.PC != 0 {
			ce.Args["pc"] = fmt.Sprintf("%#x", e.PC)
		}
		if e.Arg != 0 {
			ce.Args["arg"] = e.Arg
		}
		if e.Taken {
			ce.Args["taken"] = true
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ChromeTracePath derives the Chrome-trace twin of a JSONL trace path:
// x.jsonl → x.trace.json, anything else → path.trace.json.
func ChromeTracePath(jsonlPath string) string {
	if p, ok := strings.CutSuffix(jsonlPath, ".jsonl"); ok {
		return p + ".trace.json"
	}
	return jsonlPath + ".trace.json"
}

// WriteFiles writes the JSONL trace to jsonlPath and its Chrome-trace
// twin next to it, returning the twin's path.
func (t *Tracer) WriteFiles(jsonlPath string) (chromePath string, err error) {
	f, err := os.Create(jsonlPath)
	if err != nil {
		return "", err
	}
	if err := t.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	chromePath = ChromeTracePath(jsonlPath)
	cf, err := os.Create(chromePath)
	if err != nil {
		return "", err
	}
	if err := t.WriteChromeTrace(cf); err != nil {
		cf.Close()
		return "", err
	}
	return chromePath, cf.Close()
}

// ValidateJSONL checks a JSONL trace against the asbr-trace/v1 schema:
// schema header first, events with known kinds and strictly increasing
// sequence numbers, summary trailer last, and per-kind record counts
// consistent with the summary (equal when nothing was sampled out or
// dropped). It returns the parsed summary.
func ValidateJSONL(r io.Reader) (*Summary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("trace: missing %s header (line 1: %.80s)", TraceSchema, sc.Text())
	}

	seen := make(map[string]uint64)
	var sum *Summary
	lastSeq, haveSeq := uint64(0), false
	line := 1
	for sc.Scan() {
		line++
		if sum != nil {
			return nil, fmt.Errorf("trace line %d: records after the summary trailer", line)
		}
		b := sc.Bytes()
		var tr traceTrailer
		if err := json.Unmarshal(b, &tr); err == nil && tr.Summary != nil {
			sum = tr.Summary
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %v", line, err)
		}
		if e.Kind >= evKinds {
			return nil, fmt.Errorf("trace line %d: out-of-range kind %d", line, e.Kind)
		}
		if haveSeq && e.Seq <= lastSeq {
			return nil, fmt.Errorf("trace line %d: seq %d not increasing (prev %d)", line, e.Seq, lastSeq)
		}
		lastSeq, haveSeq = e.Seq, true
		seen[e.Kind.String()]++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	if sum == nil {
		return nil, fmt.Errorf("trace: missing summary trailer")
	}

	var total uint64
	for kind, n := range sum.Counts {
		if _, err := ParseKind(kind); err != nil {
			return nil, fmt.Errorf("trace summary: %v", err)
		}
		total += n
	}
	if total != sum.Total {
		return nil, fmt.Errorf("trace summary: per-kind counts sum to %d, total says %d", total, sum.Total)
	}
	exact := hdr.Sample <= 1 && sum.Dropped == 0
	for kind, n := range seen {
		want := sum.Counts[kind]
		if n > want {
			return nil, fmt.Errorf("trace: %d %s records exceed summary count %d", n, kind, want)
		}
		if exact && n != want {
			return nil, fmt.Errorf("trace: %d %s records but summary says %d (unsampled trace must be exact)", n, kind, want)
		}
	}
	if exact {
		for kind, want := range sum.Counts {
			if seen[kind] != want {
				return nil, fmt.Errorf("trace: %d %s records but summary says %d (unsampled trace must be exact)", seen[kind], kind, want)
			}
		}
	}
	return sum, nil
}
