package cpu

import (
	"asbr/internal/isa"
	"asbr/internal/obs"
)

// foldHook is the fetch-stage ASBR interface the per-cycle stages
// consult: the machine's ASBR unit (Config.Fold), a folding obs.Observer
// (Config.Obs), or both composed.
//
// Call-ordering invariant: OnIssue(rd) fires exactly once when a
// register-writing instruction enters decode, and the matching
// OnValue(rd, v) exactly once at the configured update point.
// Wrong-path instructions are squashed before decode, so no OnIssue is
// orphaned and validity counters cannot leak.
type foldHook interface {
	// TryFold is consulted for every delivered fetch.
	TryFold(pc uint32) (Fold, bool)
	// OnIssue notes that an instruction producing rd entered decode.
	OnIssue(rd isa.Reg)
	// OnValue delivers rd's value at the BDT update point.
	OnValue(rd isa.Reg, v int32)
	// OnBankSwitch handles a bitsw commit.
	OnBankSwitch(bank int)
}

// resolveObservers composes the per-aspect hooks (Config.Fold,
// Config.Observer, Config.Commits) with the unified Config.Obs into the
// machine's resolved hook fields. The per-aspect hooks run first in
// every composition, so a fold from Config.Fold wins over one from Obs.
// When Obs is Clocked it receives the machine's cycle counter, so
// events emitted by chained components (the ASBR core, the fault
// injector) get stamped with the cycle they occurred in.
func (c *CPU) resolveObservers() {
	if c.cfg.Fold != nil {
		c.fold = c.cfg.Fold
	}
	c.brObs = c.cfg.Observer
	c.cmObs = c.cfg.Commits
	o := c.cfg.Obs
	if o == nil {
		return
	}
	c.ev = o
	if cl, ok := o.(obs.Clocked); ok {
		cl.SetClock(func() uint64 { return c.stats.Cycles })
	}
	if c.fold == nil {
		c.fold = o
	} else {
		c.fold = foldPair{c.fold, o}
	}
	if c.brObs == nil {
		c.brObs = o
	} else {
		c.brObs = branchPair{c.brObs, o}
	}
	if c.cmObs == nil {
		c.cmObs = o
	} else {
		c.cmObs = commitPair{c.cmObs, o}
	}
}

// emit sends one pipeline event, stamped with the current cycle. Call
// sites guard on c.ev != nil so the disabled path costs one branch.
func (c *CPU) emit(k obs.EventKind, pc uint32, arg uint64, taken bool) {
	c.ev.OnEvent(obs.Event{Cycle: c.stats.Cycles, Kind: k, PC: pc, Arg: arg, Taken: taken})
}

// foldPair consults a before b; a successful fold from a wins.
type foldPair struct{ a, b foldHook }

func (p foldPair) TryFold(pc uint32) (Fold, bool) {
	if f, ok := p.a.TryFold(pc); ok {
		return f, true
	}
	return p.b.TryFold(pc)
}

func (p foldPair) OnIssue(rd isa.Reg) {
	p.a.OnIssue(rd)
	p.b.OnIssue(rd)
}

func (p foldPair) OnValue(rd isa.Reg, v int32) {
	p.a.OnValue(rd, v)
	p.b.OnValue(rd, v)
}

func (p foldPair) OnBankSwitch(bank int) {
	p.a.OnBankSwitch(bank)
	p.b.OnBankSwitch(bank)
}

// branchPair fans branch outcomes out to both observers, a first.
type branchPair struct{ a, b BranchObserver }

func (p branchPair) OnBranch(pc uint32, taken, folded bool) {
	p.a.OnBranch(pc, taken, folded)
	p.b.OnBranch(pc, taken, folded)
}

// commitPair fans commits out to both observers, a first.
type commitPair struct{ a, b CommitObserver }

func (p commitPair) OnCommit(cm Commit) {
	p.a.OnCommit(cm)
	p.b.OnCommit(cm)
}
