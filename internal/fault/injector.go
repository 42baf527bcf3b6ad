package fault

import (
	"fmt"
	"math/rand"

	"asbr/internal/core"
	"asbr/internal/isa"
	"asbr/internal/obs"
)

// injections counts injected faults process-wide, by kind, in the
// default metrics registry.
var injections = obs.Default().CounterVec("asbr_fault_injections_total", "faults injected into ASBR state, by kind.", "kind")

// Event records one injected fault.
type Event struct {
	Kind   Kind
	PC     uint32 // fetch PC at the injection point
	Reg    isa.Reg
	Detail string
}

// String renders the event for reports.
func (e Event) String() string {
	return fmt.Sprintf("%s at pc=0x%08x: %s", e.Kind, e.PC, e.Detail)
}

// Injector is a seeded mutation policy on an ASBR engine: installed
// with core.Engine.SetMutator, it runs at the start of every fetch-time
// TryFold and may corrupt the engine's BDT/BIT cells before the
// lookup. The engine then folds (or declines) on the corrupted state
// through exactly the code paths of a clean run, so a faulted machine
// is attached like a clean one (cpu.Config.Fold = eng) and runs on any
// engine, the superblock engine included.
type Injector struct {
	plan   Plan
	eng    *core.Engine
	rng    *rand.Rand
	events []Event
}

// NewInjector installs a policy running plan on eng, replacing any
// policy eng had; a KindNone plan leaves eng untouched. The same plan
// (kind, rate, seed, max) over the same program run injects the
// identical fault sequence: the RNG is the plan seed and nothing else.
func NewInjector(plan Plan, eng *core.Engine) *Injector {
	j := &Injector{plan: plan, eng: eng, rng: rand.New(rand.NewSource(plan.Seed))}
	if plan.Kind != KindNone {
		eng.SetMutator(j.maybeInject)
	}
	return j
}

// Plan returns the injector's configuration.
func (j *Injector) Plan() Plan { return j.plan }

// Events returns a copy of the injected-fault log.
func (j *Injector) Events() []Event {
	out := make([]Event, len(j.events))
	copy(out, j.events)
	return out
}

// Count returns how many faults have been injected.
func (j *Injector) Count() int { return len(j.events) }

// roll decides one injection opportunity.
func (j *Injector) roll() bool {
	if j.plan.Rate >= 1 {
		return true
	}
	return j.rng.Float64() < j.plan.Rate
}

// maybeInject corrupts engine state at one fetch when the plan's kind
// has an opportunity there and the rate/budget allow it.
func (j *Injector) maybeInject(pc uint32) {
	if j.plan.Max > 0 && len(j.events) >= j.plan.Max {
		return
	}
	en, hit := j.eng.ActiveEntry(pc)
	switch j.plan.Kind {
	case KindBDTFlip:
		if !hit || !j.roll() {
			return
		}
		j.eng.BDTState().FlipDir(en.Reg, en.Cond)
		j.record(pc, en.Reg, "flipped %s direction bit of %s", en.Cond, en.Reg)

	case KindValiditySkew:
		if !hit {
			return
		}
		bdt := j.eng.BDTState()
		if bdt.Valid(en.Reg) {
			return // already resolved: no skew to apply
		}
		if !j.roll() {
			return
		}
		was := bdt.Counter(en.Reg)
		bdt.SetCounter(en.Reg, 0)
		bdt.SetKnown(en.Reg, true)
		j.record(pc, en.Reg, "forced counter %d->0 on %s (stale predicate now folds)", was, en.Reg)

	case KindBITAlias:
		if hit || !j.roll() {
			return
		}
		bit := j.eng.ActiveBIT()
		entries := bit.Entries()
		if len(entries) == 0 {
			return
		}
		victim := entries[j.rng.Intn(len(entries))]
		if err := bit.Realias(victim.PC, pc); err != nil {
			return
		}
		j.record(pc, victim.Reg, "rekeyed entry 0x%08x onto this pc", victim.PC)

	case KindStaleBTI:
		if !hit || !j.roll() {
			return
		}
		// The all-zero word is the canonical nop: the cached BTI/BFI
		// decode fine but no longer do the target instruction's work.
		if err := j.eng.ActiveBIT().SetWords(pc, en.BTA, 0, 0); err != nil {
			return
		}
		j.record(pc, en.Reg, "replaced cached BTI/BFI words with nops")
	}
}

func (j *Injector) record(pc uint32, r isa.Reg, format string, args ...any) {
	j.events = append(j.events, Event{
		Kind:   j.plan.Kind,
		PC:     pc,
		Reg:    r,
		Detail: fmt.Sprintf(format, args...),
	})
	injections.With(j.plan.Kind.String()).Inc()
	if j.plan.Kind == KindBITAlias {
		if sink, ok := j.eng.Sink(); ok {
			sink.OnEvent(obs.Event{Kind: obs.EvBITAlias, PC: pc, Arg: uint64(r)})
		}
	}
}
