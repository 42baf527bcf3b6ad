// Observability gate for both engines: the pipeline event stream is
// part of the architectural contract — fast and reference runs must
// emit identical events, and the tracer's pre-sampling per-kind totals
// must bit-match the simulator's own counters.
package cpu_test

import (
	"context"
	"reflect"
	"testing"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/obs"
	"asbr/internal/workload"
)

// obsSamples is deliberately small: the equivalence test retains the
// full event stream of two runs in memory.
const obsSamples = 64

func buildBenchN(t *testing.T, name string, n int) (*isa.Program, []int32) {
	t.Helper()
	prog, err := workload.Build(name, true)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	in, err := workload.Input(name, n, 1)
	if err != nil {
		t.Fatalf("input %s: %v", name, err)
	}
	return prog, in
}

// evCollector retains every event, unsampled.
type evCollector struct {
	events []obs.Event
}

func (c *evCollector) OnEvent(e obs.Event) { c.events = append(c.events, e) }

func runCollected(t *testing.T, name string, e cpu.Engine) ([]obs.Event, cpu.Stats) {
	t.Helper()
	prog, in := buildBenchN(t, name, obsSamples)
	col := &evCollector{}
	cfg := engCfg(e)
	cfg.Obs = col
	res, err := workload.RunContext(context.Background(), prog, cfg, in, obsSamples)
	if err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	return col.events, res.Stats
}

// TestEngineEventStreamEquivalence requires the fast and reference
// engines to emit bit-identical event streams — kind, order, pc,
// operand and cycle stamp — on all four paper benchmarks.
func TestEngineEventStreamEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			ref, refStats := runCollected(t, name, cpu.EngineReference)
			fast, fastStats := runCollected(t, name, cpu.EngineFast)
			if len(ref) == 0 {
				t.Fatal("reference run emitted no events")
			}
			if len(ref) != len(fast) {
				t.Fatalf("event count mismatch: reference %d, fast %d", len(ref), len(fast))
			}
			if !reflect.DeepEqual(ref, fast) {
				for i := range ref {
					if ref[i] != fast[i] {
						t.Fatalf("first divergence at event %d:\nreference %+v\nfast      %+v", i, ref[i], fast[i])
					}
				}
			}
			if !reflect.DeepEqual(refStats, fastStats) {
				t.Errorf("stats mismatch:\nreference %+v\nfast      %+v", refStats, fastStats)
			}
		})
	}
}

// TestTracerCountsMatchStats pins the bit-match guarantee the CLI
// self-check relies on: even with aggressive sampling and a saturated
// buffer, the tracer's exact per-kind totals equal the simulator's
// counters.
func TestTracerCountsMatchStats(t *testing.T) {
	prog, in := buildBenchN(t, workload.ADPCMEncode, obsSamples)
	tr := obs.NewTracer(obs.TracerConfig{Sample: 1024, Cap: 1 << 10})
	cfg := engCfg(cpu.EngineFast)
	cfg.Obs = tr
	res, err := workload.RunContext(context.Background(), prog, cfg, in, obsSamples)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := res.Stats
	for _, c := range []struct {
		kind obs.EventKind
		want uint64
	}{
		{obs.EvCommit, st.Instructions},
		{obs.EvFetch, st.Fetches},
		{obs.EvBranch, st.CondBranches},
		{obs.EvMispredict, st.Mispredicts},
		{obs.EvFold, st.Folded},
	} {
		if got := tr.Count(c.kind); got != c.want {
			t.Errorf("Count(%s) = %d, stats say %d", c.kind, got, c.want)
		}
	}
	if tr.Retained() >= int(tr.Total()) {
		t.Errorf("sampling had no effect: retained %d of %d", tr.Retained(), tr.Total())
	}
}

// TestTracerASBRChainCounts runs a folded machine whose ASBR unit and
// pipeline both emit into one tracer (Config.Fold plus
// Engine.SetEventSink, and Config.Obs) and requires three-way
// agreement: tracer totals, cpu.Stats, and the core engine's own
// counters. The unit's events carry no cycle; the tracer must stamp
// each with the machine cycle, the cycle of the fetch that caused it.
func TestTracerASBRChainCounts(t *testing.T) {
	prog, in := buildBenchN(t, workload.ADPCMEncode, obsSamples)
	pcs := core.FoldableBranches(prog)
	entries, err := core.BuildBIT(prog, pcs)
	if err != nil {
		t.Fatalf("BuildBIT: %v", err)
	}
	if len(entries) > core.DefaultBITEntries {
		entries = entries[:core.DefaultBITEntries]
	}
	if len(entries) == 0 {
		t.Skip("no foldable branches")
	}
	eng := core.NewEngine(core.Config{BITEntries: core.DefaultBITEntries, TrackValidity: true})
	if err := eng.Load(entries); err != nil {
		t.Fatalf("load BIT: %v", err)
	}
	tr := obs.NewTracer(obs.TracerConfig{})
	eng.SetEventSink(tr)
	cfg := engCfg(cpu.EngineAuto)
	cfg.Fold, cfg.Obs = eng, tr
	res, err := workload.RunContext(context.Background(), prog, cfg, in, obsSamples)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st, es := res.Stats, eng.Stats()
	if st.Folded == 0 {
		t.Fatalf("no folds happened (entries=%d)", len(entries))
	}
	if got := tr.Count(obs.EvFold); got != st.Folded || st.Folded != es.Folds {
		t.Errorf("fold counts disagree: tracer %d, cpu %d, engine %d", got, st.Folded, es.Folds)
	}
	if got := tr.Count(obs.EvBITHit); got != es.Hits {
		t.Errorf("Count(bit_hit) = %d, engine says %d", got, es.Hits)
	}
	if got := tr.Count(obs.EvFoldFallback); got != es.Fallbacks {
		t.Errorf("Count(fold_fallback) = %d, engine says %d", got, es.Fallbacks)
	}
	if got := tr.Count(obs.EvCommit); got != st.Instructions {
		t.Errorf("Count(commit) = %d, stats say %d", got, st.Instructions)
	}
	if got := res.CPU.ResolvedEngine(); got != cpu.EngineFast {
		t.Errorf("machine with an event sink resolved to %s, want fast", got)
	}

	// Every BIT hit follows the fetch that probed the BIT, in the same
	// cycle.
	evs := tr.Events()
	if tr.Dropped() != 0 || uint64(len(evs)) != tr.Total() {
		t.Fatalf("tracer dropped events: retained %d of %d", len(evs), tr.Total())
	}
	hits := 0
	for i, e := range evs {
		if e.Kind != obs.EvBITHit {
			continue
		}
		hits++
		var f obs.Event
		if i > 0 {
			f = evs[i-1]
		}
		if f.Kind != obs.EvFetch || f.PC != e.PC || e.Cycle != f.Cycle || e.Cycle == 0 {
			t.Fatalf("bit_hit %+v not stamped with its fetch's cycle (preceded by %+v)", e, f)
		}
	}
	if uint64(hits) != es.Hits {
		t.Errorf("retained %d bit_hit events, engine says %d hits", hits, es.Hits)
	}
}
