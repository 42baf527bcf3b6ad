package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"asbr/internal/obs"
	"asbr/internal/runner"
)

func TestTracerSamplingKeepsExactCounts(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Sample: 10})
	const n = 1005
	for i := 0; i < n; i++ {
		tr.OnEvent(obs.Event{Kind: obs.EvFetch, Cycle: uint64(i + 1)})
	}
	if got := tr.Total(); got != n {
		t.Errorf("Total = %d, want %d", got, n)
	}
	if got := tr.Count(obs.EvFetch); got != n {
		t.Errorf("Count(fetch) = %d, want %d (pre-sampling)", got, n)
	}
	if got := tr.Retained(); got != 101 {
		t.Errorf("Retained = %d, want 101 (every 10th of %d)", got, n)
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not seq-ordered at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestTracerCapDropsButCounts(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Cap: 8})
	for i := 0; i < 20; i++ {
		tr.OnEvent(obs.Event{Kind: obs.EvCommit, Cycle: uint64(i + 1)})
	}
	if got := tr.Retained(); got != 8 {
		t.Errorf("Retained = %d, want 8", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Errorf("Dropped = %d, want 12", got)
	}
	if got := tr.Count(obs.EvCommit); got != 20 {
		t.Errorf("Count(commit) = %d, want 20", got)
	}
}

func TestTracerIgnoresUnknownKinds(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{})
	tr.OnEvent(obs.Event{Kind: obs.EventKind(200)})
	if tr.Total() != 0 || tr.Retained() != 0 {
		t.Errorf("out-of-range kind recorded: total %d retained %d", tr.Total(), tr.Retained())
	}
}

func TestWriteJSONLRoundTripsThroughValidate(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{})
	tr.SetClock(func() uint64 { return 5 })
	tr.OnEvent(obs.Event{Kind: obs.EvFetch, Cycle: 1, PC: 0x40})
	tr.OnEvent(obs.Event{Kind: obs.EvFold, Cycle: 1, PC: 0x44, Arg: 0x60, Taken: true})
	tr.OnEvent(obs.Event{Kind: obs.EvBITHit, PC: 0x44}) // cycle-less: stamped by the clock
	tr.OnEvent(obs.Event{Kind: obs.EvCommit, Cycle: 3, PC: 0x40})

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sum, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateJSONL: %v\n%s", err, buf.String())
	}
	if sum.Total != 4 || sum.Counts["fetch"] != 1 || sum.Counts["fold"] != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if !strings.Contains(buf.String(), `"cycle":5,"kind":"bit_hit"`) {
		t.Errorf("clock stamp missing from bit_hit line:\n%s", buf.String())
	}
}

func TestValidateJSONLRejectsCorruption(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{})
	tr.OnEvent(obs.Event{Kind: obs.EvFetch, Cycle: 1})
	tr.OnEvent(obs.Event{Kind: obs.EvCommit, Cycle: 2})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.SplitAfter(buf.String(), "\n") // header, fetch, commit, trailer, ""
	for name, bad := range map[string]string{
		"missing header":  strings.Join(lines[1:], ""),
		"missing trailer": strings.Join(lines[:3], ""),
		// An unsampled trace must account for every counted event.
		"dropped event": lines[0] + strings.Join(lines[2:], ""),
	} {
		if _, err := obs.ValidateJSONL(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestWriteFilesProducesChromeTwin(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{})
	tr.OnEvent(obs.Event{Kind: obs.EvFold, Cycle: 9, PC: 0x44, Arg: 0x60, Taken: true})
	path := filepath.Join(t.TempDir(), "run.jsonl")
	chrome, err := tr.WriteFiles(path)
	if err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	if want := filepath.Join(filepath.Dir(path), "run.trace.json"); chrome != want {
		t.Errorf("chrome path = %s, want %s", chrome, want)
	}
	b := readFile(t, chrome)
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(out.TraceEvents) != 1 || out.TraceEvents[0]["name"] != "fold" || out.TraceEvents[0]["ts"] != float64(9) {
		t.Errorf("chrome events = %+v", out.TraceEvents)
	}
	if _, err := obs.ValidateJSONL(bytes.NewReader(readFile(t, path))); err != nil {
		t.Errorf("JSONL twin invalid: %v", err)
	}
}

// TestTracerConcurrentFlush hammers one tracer from a runner pool while
// readers snapshot and serialize it concurrently — the -race gate for
// the lock-free slot protocol.
func TestTracerConcurrentFlush(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Cap: 1 << 12})
	const workers, perWorker = 8, 2000

	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Events()
				var buf bytes.Buffer
				if err := tr.WriteJSONL(&buf); err != nil {
					t.Errorf("concurrent WriteJSONL: %v", err)
					return
				}
			}
		}
	}()

	jobs := make([]int, workers)
	_, err := runner.Map(workers, jobs, func(i int, _ int) (struct{}, error) {
		for j := 0; j < perWorker; j++ {
			tr.OnEvent(obs.Event{Kind: obs.EvCommit, Cycle: uint64(j + 1), PC: uint32(i)})
		}
		return struct{}{}, nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("runner.Map: %v", err)
	}
	if got, want := tr.Total(), uint64(workers*perWorker); got != want {
		t.Errorf("Total = %d, want %d", got, want)
	}
	if got := tr.Count(obs.EvCommit); got != uint64(workers*perWorker) {
		t.Errorf("Count(commit) = %d, want %d", got, workers*perWorker)
	}
	evs := tr.Events()
	if len(evs) != 1<<12 {
		t.Errorf("Retained = %d, want full buffer %d", len(evs), 1<<12)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("test_total", "a counter.")
	c.Add(3)
	g := r.Gauge("test_gauge", "a gauge.")
	g.Set(2.5)
	v := r.CounterVec("test_labeled_total", "a vec.", "path", "status")
	v.With("/v1/sim", "200").Inc()
	v.With("/v1/sim", "400").Add(2)
	r.GaugeFunc("test_live", "live gauge.", func() float64 { return 7 })
	h := r.Histogram("test_seconds", "a histogram.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP test_total a counter.\n# TYPE test_total counter\ntest_total 3\n",
		"test_gauge 2.5\n",
		`test_labeled_total{path="/v1/sim",status="200"} 1`,
		`test_labeled_total{path="/v1/sim",status="400"} 2`,
		"test_live 7\n",
		`test_seconds_bucket{le="1"} 1`,
		`test_seconds_bucket{le="10"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_sum 55.5\n",
		"test_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render in registration order.
	if strings.Index(out, "test_total") > strings.Index(out, "test_gauge") {
		t.Error("families not in registration order")
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("dup_total", "first.")
	b := r.Counter("dup_total", "second.")
	if a != b {
		t.Error("re-registering the same shape returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("shape conflict did not panic")
		}
	}()
	r.Gauge("dup_total", "now a gauge.")
}

func TestSnapshotAccumulate(t *testing.T) {
	var s obs.Snapshot
	s.Accumulate(obs.Snapshot{
		Cycles: 100, Instructions: 50, CondBranches: 10, DirMispredicts: 2,
		Folded: 10, ICacheMissRate: 0.1,
	})
	s.Accumulate(obs.Snapshot{
		Cycles: 300, Instructions: 150, CondBranches: 30, DirMispredicts: 2,
		ICacheMissRate: 0.2,
	})
	if s.Cycles != 400 || s.Instructions != 200 {
		t.Errorf("counters: %+v", s)
	}
	if got, want := s.CPI, 2.0; got != want {
		t.Errorf("CPI = %g, want %g", got, want)
	}
	if got, want := s.Accuracy, 0.9; math.Abs(got-want) > 1e-12 {
		t.Errorf("Accuracy = %g, want %g", got, want)
	}
	if got, want := s.FoldCoverage, 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("FoldCoverage = %g, want %g", got, want)
	}
	if got, want := s.ICacheMissRate, 0.175; math.Abs(got-want) > 1e-12 {
		t.Errorf("ICacheMissRate = %g, want %g (cycle-weighted)", got, want)
	}
}

func TestEventKindJSONRoundTrip(t *testing.T) {
	for _, name := range obs.KindNames() {
		k, err := obs.ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%s): %v", name, err)
		}
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		var back obs.EventKind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Errorf("%s: round-trip %s -> %v (%v)", name, b, back, err)
		}
	}
	if _, err := obs.ParseKind("nonsense"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

func TestSnapshotAccumulateZeroCycleExact(t *testing.T) {
	// Rates chosen to be inexact under a multiply/divide round-trip:
	// (0.1*3)/3 != 0.1 in float64. The zero-cycle fast paths must keep
	// them bit-identical anyway.
	full := obs.Snapshot{
		Cycles: 3, Instructions: 2, CondBranches: 1, DirMispredicts: 1,
		Folded: 4, FoldFallbacks: 1, LoadUseStalls: 5,
		ICacheMissRate: 0.1, DCacheMissRate: 0.7,
	}

	// Zero-cycle accumulator adopting one snapshot: the degenerate
	// single-worker fleet. Everything must round-trip exactly,
	// including the recomputed ratios.
	var s obs.Snapshot
	s.Accumulate(full)
	want := full
	want.CPI = float64(full.Cycles) / float64(full.Instructions)
	want.Accuracy = 1 - float64(full.DirMispredicts)/float64(full.CondBranches)
	want.FoldCoverage = float64(full.Folded) / float64(full.CondBranches+full.Folded)
	if diff := s.Diff(want); diff != nil {
		t.Errorf("zero accumulator + snapshot: %v", diff)
	}

	// Folding a zero-cycle snapshot (an error cell, a skipped bench)
	// into a live accumulator must not move the float state at all.
	before := s
	s.Accumulate(obs.Snapshot{})
	if diff := s.Diff(before); diff != nil {
		t.Errorf("accumulating zero snapshot perturbed state: %v", diff)
	}
	// Even a zero-cycle snapshot carrying junk rates is weightless.
	s.Accumulate(obs.Snapshot{ICacheMissRate: 0.999, DCacheMissRate: 0.999})
	if s.ICacheMissRate != before.ICacheMissRate || s.DCacheMissRate != before.DCacheMissRate {
		t.Errorf("zero-cycle rates leaked in: icache %g dcache %g", s.ICacheMissRate, s.DCacheMissRate)
	}

	// Both sides zero: rates stay zero, no NaN from 0/0.
	var z obs.Snapshot
	z.Accumulate(obs.Snapshot{})
	if z != (obs.Snapshot{}) {
		t.Errorf("zero+zero = %+v, want zero value", z)
	}
}

func TestSnapshotAccumulateOrderIndependent(t *testing.T) {
	// Counters and the ratios derived from them are order-independent
	// by construction. Float rate averaging is only guaranteed exact
	// under reordering for exactly-representable rates with
	// power-of-two cycle weights, which is what a coordinator's
	// canonical accumulation order relies on — pin that contract.
	parts := []obs.Snapshot{
		{Cycles: 64, Instructions: 32, CondBranches: 8, DirMispredicts: 2, ICacheMissRate: 0.25, DCacheMissRate: 0.5},
		{Cycles: 128, Instructions: 100, CondBranches: 16, DirMispredicts: 1, ICacheMissRate: 0.5, DCacheMissRate: 0.125},
		{}, // an ERR cell contributes nothing
		{Cycles: 64, Instructions: 40, Folded: 8, ICacheMissRate: 0.75, DCacheMissRate: 0.25},
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	var ref obs.Snapshot
	for _, i := range perms[0] {
		ref.Accumulate(parts[i])
	}
	for _, p := range perms[1:] {
		var s obs.Snapshot
		for _, i := range p {
			s.Accumulate(parts[i])
		}
		if diff := s.Diff(ref); diff != nil {
			t.Errorf("order %v diverged from canonical: %v", p, diff)
		}
	}
	if got, want := ref.ICacheMissRate, 0.5; got != want {
		t.Errorf("ICacheMissRate = %g, want %g", got, want)
	}
}
