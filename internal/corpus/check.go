package corpus

import (
	"context"
	"encoding/json"
	"fmt"

	"asbr/internal/cc"
	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/fault"
	"asbr/internal/obs"
	"asbr/internal/sched"
)

// CheckOptions configures a differential corpus run.
type CheckOptions struct {
	// Entries is the corpus size (default 30). Entry i is generated
	// from seed BaseSeed+i, so the whole corpus reproduces from
	// (BaseSeed, Knobs) alone.
	Entries  int
	BaseSeed int64 // default 2001
	Knobs    Knobs

	Predictor string // machine predictor (default bimodal)
	MaxCycles uint64 // per-run watchdog (default 50M)

	// Fault, when its kind is not KindNone, corrupts the superblock
	// leg's ASBR engine through the internal/fault injector, on the
	// engine production ASBR runs use. A correct harness must then
	// FAIL: the injected corruption shows up as an
	// asbr-superblock-vs-reference divergence with the generating seed
	// pinned.
	Fault fault.Plan

	// Serve, when non-nil, adds a service round-trip leg per entry:
	// the entry is packaged as a replay Record, handed to the hook
	// (cmd/asbr-corpus posts it through /v1/jobs), and the returned
	// snapshot must match the local fast-engine run byte-for-byte.
	Serve func(Record) (obs.Snapshot, error)

	Logf func(format string, args ...any) // optional progress logger
}

// zooSpecs are the predictor-zoo configurations the differential gate
// rotates through (leg 1b): compact TAGE/loop sizings that still
// exercise tagged-table allocation and trip-count training on the
// generated programs.
var zooSpecs = []string{
	"tage:tables=4,entries=256,hist=32",
	"loop:entries=64",
	"tageloop:tables=4,entries=256,hist=32",
}

func (o CheckOptions) fill() CheckOptions {
	if o.Entries <= 0 {
		o.Entries = 30
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 2001
	}
	if o.Predictor == "" {
		o.Predictor = "bimodal"
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
	return o
}

func (o CheckOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// CheckResult summarizes a passed differential run.
type CheckResult struct {
	Entries []Entry // manifest-ready: seeds, knobs, keys, digests

	ASBRPrograms int    // entries with at least one foldable branch
	Folds        uint64 // total folds across the clean reference legs
	ServeChecked int    // entries that also passed the serve leg
}

// DivergenceError is the harness's failure: one corpus entry whose
// snapshots differ between two legs. The generating seed is pinned so
// the failure reproduces in one line.
type DivergenceError struct {
	Name  string
	Seed  int64
	Knobs Knobs
	Leg   string // e.g. fast-vs-reference, asbr-superblock-vs-reference, serve-vs-local
	Diffs []obs.FieldDiff
}

func (e *DivergenceError) Error() string {
	kb, _ := json.Marshal(e.Knobs)
	msg := fmt.Sprintf("corpus: entry %s DIVERGED (%s): seed %d pinned — repro: asbr-corpus check -entries 1 -seed %d (knobs %s)",
		e.Name, e.Leg, e.Seed, e.Seed, kb)
	for _, d := range e.Diffs {
		msg += "\n  " + d.String()
	}
	return msg
}

// Check regenerates the corpus from seeds alone and replays every
// entry differentially: fast and superblock vs reference engine on the
// plain run and on the ASBR (folded) run when the program has foldable
// branches, and optionally through a serving round-trip. It
// fails on the first snapshot divergence. A corpus in which no entry
// ever folds a branch is an error too — the ASBR leg would be vacuous.
func Check(ctx context.Context, opt CheckOptions) (*CheckResult, error) {
	opt = opt.fill()
	knobs, err := opt.Knobs.Normalize()
	if err != nil {
		return nil, err
	}
	res := &CheckResult{}
	for i := 0; i < opt.Entries; i++ {
		seed := opt.BaseSeed + int64(i)
		entry, err := checkOne(ctx, opt, knobs, seed, res)
		if err != nil {
			return nil, err
		}
		res.Entries = append(res.Entries, entry)
	}
	if res.Folds == 0 {
		return nil, fmt.Errorf("corpus: no entry folded a branch across %d programs; the ASBR differential leg is vacuous (raise fold_density or entries)", opt.Entries)
	}
	opt.logf("corpus: %d entries OK (%d with ASBR leg, %d folds, %d serve round-trips)",
		len(res.Entries), res.ASBRPrograms, res.Folds, res.ServeChecked)
	return res, nil
}

// checkOne generates, compiles and differentially replays one entry.
func checkOne(ctx context.Context, opt CheckOptions, knobs Knobs, seed int64, res *CheckResult) (Entry, error) {
	name := fmt.Sprintf("corpus-%d", seed)
	diverged := func(leg string, a, b obs.Snapshot) error {
		return &DivergenceError{Name: name, Seed: seed, Knobs: knobs, Leg: leg, Diffs: a.Diff(b)}
	}

	src, err := Generate(seed, knobs)
	if err != nil {
		return Entry{}, err
	}
	prog, err := cc.CompileToProgram(src)
	if err != nil {
		return Entry{}, fmt.Errorf("corpus: entry %s (seed %d): compile: %v\n%s", name, seed, err, src)
	}
	prog, _, err = sched.Schedule(prog)
	if err != nil {
		return Entry{}, fmt.Errorf("corpus: entry %s (seed %d): schedule: %v", name, seed, err)
	}

	run := func(engine cpu.Engine, mutate func(*cpu.Config)) (obs.Snapshot, error) {
		cfg, err := MachineFor(MachineSpec{Predictor: opt.Predictor, Engine: engine, MaxCycles: opt.MaxCycles})
		if err != nil {
			return obs.Snapshot{}, err
		}
		if mutate != nil {
			mutate(&cfg)
		}
		c, err := runProgram(ctx, prog, cfg)
		if err != nil {
			return obs.Snapshot{}, fmt.Errorf("corpus: entry %s (seed %d): %v", name, seed, err)
		}
		return c.Stats().Snapshot(), nil
	}

	// Leg 1: plain run, fast vs reference, then superblock vs
	// reference. The superblock leg runs hookless, so the explicit
	// request really exercises the fused batch loop (SelectEngine would
	// silently degrade it if any hook were attached — the cpu package's
	// capability tests pin that, this leg pins the fused loop's
	// architecture-visible equivalence on generated control flow).
	ref, err := run(cpu.EngineReference, nil)
	if err != nil {
		return Entry{}, err
	}
	fast, err := run(cpu.EngineFast, nil)
	if err != nil {
		return Entry{}, err
	}
	if ref != fast {
		return Entry{}, diverged("fast-vs-reference", fast, ref)
	}
	super, err := run(cpu.EngineSuperblock, nil)
	if err != nil {
		return Entry{}, err
	}
	if ref != super {
		return Entry{}, diverged("superblock-vs-reference", super, ref)
	}

	// Leg 1b: the predictor zoo. Each entry exercises one TAGE/loop
	// spec in rotation; all three engines must agree bit-for-bit with
	// stateful tagged-history and trip-count predictors in the branch
	// unit (TAGE's Predict is read-only, so differing probe counts
	// between engines must not diverge).
	zoo := zooSpecs[int(uint64(seed)%uint64(len(zooSpecs)))]
	withPred := func(engine cpu.Engine) (obs.Snapshot, error) {
		return run(engine, func(cfg *cpu.Config) { cfg.Predictor = zoo })
	}
	zooRef, err := withPred(cpu.EngineReference)
	if err != nil {
		return Entry{}, err
	}
	zooFast, err := withPred(cpu.EngineFast)
	if err != nil {
		return Entry{}, err
	}
	if zooRef != zooFast {
		return Entry{}, diverged("zoo["+zoo+"]-fast-vs-reference", zooFast, zooRef)
	}
	zooSuper, err := withPred(cpu.EngineSuperblock)
	if err != nil {
		return Entry{}, err
	}
	if zooRef != zooSuper {
		return Entry{}, diverged("zoo["+zoo+"]-superblock-vs-reference", zooSuper, zooRef)
	}

	// Leg 2: ASBR run with every foldable branch loaded: the fast and
	// superblock engines vs the reference. The superblock side
	// optionally runs under the fault injector, a mutation policy on
	// its unit that keeps it on the superblock engine — state
	// corruption must surface as divergence there.
	bits, err := core.BuildBIT(prog, core.FoldableBranches(prog))
	if err != nil {
		return Entry{}, fmt.Errorf("corpus: entry %s (seed %d): %v", name, seed, err)
	}
	if len(bits) > 0 {
		res.ASBRPrograms++
		newEngine := func() (*core.Engine, error) {
			eng := core.NewEngine(core.Config{BITEntries: len(bits), TrackValidity: true})
			if err := eng.Load(bits); err != nil {
				return nil, fmt.Errorf("corpus: entry %s (seed %d): %v", name, seed, err)
			}
			return eng, nil
		}
		engRef, err := newEngine()
		if err != nil {
			return Entry{}, err
		}
		asbrRef, err := run(cpu.EngineReference, func(cfg *cpu.Config) { cfg.Fold = engRef })
		if err != nil {
			return Entry{}, err
		}
		engFast, err := newEngine()
		if err != nil {
			return Entry{}, err
		}
		asbrFast, err := run(cpu.EngineFast, func(cfg *cpu.Config) { cfg.Fold = engFast })
		if err != nil {
			return Entry{}, err
		}
		res.Folds += engRef.Stats().Folds
		if asbrRef != asbrFast {
			return Entry{}, diverged("asbr-fast-vs-reference", asbrFast, asbrRef)
		}
		engSuper, err := newEngine()
		if err != nil {
			return Entry{}, err
		}
		fault.NewInjector(opt.Fault, engSuper)
		asbrSuper, err := run(cpu.EngineSuperblock, func(cfg *cpu.Config) { cfg.Fold = engSuper })
		if err != nil {
			return Entry{}, err
		}
		if asbrRef != asbrSuper {
			return Entry{}, diverged("asbr-superblock-vs-reference", asbrSuper, asbrRef)
		}
	}

	// Leg 3: serving round-trip. The record carries the raw source —
	// the service compiles and schedules it itself — and the returned
	// snapshot must equal the local fast run (the daemon's engine).
	if opt.Serve != nil {
		rec := Record{
			Key: SourceKey(src), Source: src, Compile: true, Schedule: true,
			Config: ReplayConfig{Predictor: opt.Predictor, MaxCycles: opt.MaxCycles},
		}
		served, err := opt.Serve(rec)
		if err != nil {
			return Entry{}, fmt.Errorf("corpus: entry %s (seed %d): serve leg: %v", name, seed, err)
		}
		if served != fast {
			return Entry{}, diverged("serve-vs-local", served, fast)
		}
		res.ServeChecked++
	}

	opt.logf("corpus: %s ok (bit=%d)", name, len(bits))
	return Entry{
		Name: name, Seed: seed, Knobs: knobs,
		ProgramKey:     SourceKey(src),
		SnapshotDigest: SnapshotDigest(ref),
	}, nil
}

// VerifyManifest compares a regenerated corpus against a previously
// written manifest: entry-by-entry identity of names, seeds, knobs,
// program keys (generator drift) and snapshot digests (behavior
// drift).
func VerifyManifest(manifest, got []Entry) error {
	if len(manifest) != len(got) {
		return fmt.Errorf("corpus: manifest has %d entries, regeneration produced %d", len(manifest), len(got))
	}
	for i, want := range manifest {
		g := got[i]
		if g.Name != want.Name || g.Seed != want.Seed || g.Knobs != want.Knobs {
			return fmt.Errorf("corpus: entry %d: regenerated identity (%s, seed %d) does not match manifest (%s, seed %d)",
				i, g.Name, g.Seed, want.Name, want.Seed)
		}
		if g.ProgramKey != want.ProgramKey {
			return fmt.Errorf("corpus: entry %s (seed %d): program key drifted: generator now produces %s, manifest pinned %s",
				want.Name, want.Seed, g.ProgramKey, want.ProgramKey)
		}
		if want.SnapshotDigest != "" && g.SnapshotDigest != want.SnapshotDigest {
			return fmt.Errorf("corpus: entry %s (seed %d): snapshot digest drifted: reference run now yields %s, manifest pinned %s",
				want.Name, want.Seed, g.SnapshotDigest, want.SnapshotDigest)
		}
	}
	return nil
}
