// Package obs is the unified observability layer: one Observer
// interface that subsumes the CPU's historical hook set (fold hook,
// branch observer, commit observer), a typed pipeline event stream, a
// lock-free sampled tracer (JSONL + Chrome trace_event output), a
// zero-dependency metrics registry in Prometheus text exposition
// format, and the canonical statistics Snapshot shared by the CPU, the
// experiment tables and the serving layer's wire protocol.
//
// The package sits below internal/cpu and internal/core in the
// dependency order: the architectural types the fetch stage exchanges
// with a folding unit (Fold, Commit) are defined here and aliased by
// package cpu, so an Observer composes with the per-aspect hooks
// without conversion. Everything is stdlib-only and allocation-free on
// the disabled path — a nil Observer in cpu.Config costs one
// predictable branch per emission site.
package obs

import (
	"asbr/internal/isa"
)

// Fold describes a successful ASBR branch fold returned by an
// observer's TryFold: the fetched branch is replaced in the fetch slot
// by the instruction word Word whose architectural address is PC, and
// fetch continues at Next (paper Figure 4: BTA+4 when taken, branch
// PC+8 when not). Package cpu aliases this type as cpu.Fold.
type Fold struct {
	Word  uint32 // replacement instruction (BTI or BFI)
	PC    uint32 // architectural address of the replacement instruction
	Next  uint32 // next fetch address
	Taken bool   // folded direction (for statistics/observers)
}

// Commit describes one committed (write-back) instruction: its address,
// opcode and architectural effects. It is the unit the fault harness's
// divergence checker compares across machines, so it carries everything
// architecturally observable about the instruction — register write and
// store effect — but not timing. Package cpu aliases this type as
// cpu.Commit.
type Commit struct {
	PC    uint32
	Cycle uint64
	Op    isa.Op

	HasDest bool
	Dest    isa.Reg
	Value   int32

	Store    bool
	Addr     uint32
	StoreVal int32

	Branch bool // conditional branch (absent from a run that folded it)
}

// EventSink receives pipeline events. It is the narrow interface the
// ASBR core and the fault injector emit through, so they need no
// knowledge of tracers or metrics.
type EventSink interface {
	OnEvent(Event)
}

// Clocked is implemented by sinks that stamp events with the machine's
// cycle counter. cpu.New installs its clock into a Clocked observer;
// Chain forwards the installation to every Clocked member.
type Clocked interface {
	SetClock(func() uint64)
}

// Observer is the single observability interface of the simulator: it
// receives the calls the CPU makes on its ASBR unit (TryFold/OnIssue/
// OnValue/OnBankSwitch), the BranchObserver (OnBranch) and the
// CommitObserver (OnCommit) calls, and the typed event stream
// (OnEvent). Because package cpu aliases Fold and Commit from this
// package, any Observer satisfies cpu.BranchObserver and
// cpu.CommitObserver and can stand in for them.
//
// Implementations embed Base and override the methods they care about;
// NewChain composes several observers — a fault injector, the ASBR
// engine, a tracer, a metrics mirror — into one.
type Observer interface {
	// TryFold is consulted for every delivered fetch (the ASBR BIT
	// lookup point). Non-folding observers inherit Base's refusal.
	TryFold(pc uint32) (Fold, bool)
	// OnIssue notes that an instruction producing rd entered decode.
	OnIssue(rd isa.Reg)
	// OnValue delivers the produced value of rd at the BDT update point.
	OnValue(rd isa.Reg, v int32)
	// OnBankSwitch handles the bitsw control-register write.
	OnBankSwitch(bank int)
	// OnBranch sees every dynamic conditional-branch outcome,
	// including folded ones.
	OnBranch(pc uint32, taken bool, folded bool)
	// OnCommit sees every committed instruction in program order.
	OnCommit(Commit)
	// OnEvent receives the typed pipeline event stream.
	OnEvent(Event)
}

// Base is the no-op Observer. Embed it and override the methods of
// interest; the zero value refuses every fold and ignores everything
// else.
type Base struct{}

// TryFold implements Observer (never folds).
func (Base) TryFold(uint32) (Fold, bool) { return Fold{}, false }

// OnIssue implements Observer (no-op).
func (Base) OnIssue(isa.Reg) {}

// OnValue implements Observer (no-op).
func (Base) OnValue(isa.Reg, int32) {}

// OnBankSwitch implements Observer (no-op).
func (Base) OnBankSwitch(int) {}

// OnBranch implements Observer (no-op).
func (Base) OnBranch(uint32, bool, bool) {}

// OnCommit implements Observer (no-op).
func (Base) OnCommit(Commit) {}

// OnEvent implements Observer (no-op).
func (Base) OnEvent(Event) {}

// Chain fans every notification out to its members in order. TryFold
// consults members front to back and the first successful fold wins —
// so a fault injector placed before the ASBR engine gets its corruption
// opportunity on every fetch while the engine still makes the fold
// decision, exactly the legacy corrupt-then-delegate wrapping.
type Chain struct {
	members []Observer
}

// NewChain composes observers into one. Nil members are dropped; a
// single surviving member is returned directly (no wrapper cost); an
// empty chain is a nil Observer.
func NewChain(members ...Observer) Observer {
	ms := make([]Observer, 0, len(members))
	for _, m := range members {
		if m != nil {
			ms = append(ms, m)
		}
	}
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return ms[0]
	}
	return &Chain{members: ms}
}

// Members returns the composed observers, in consultation order.
func (c *Chain) Members() []Observer { return c.members }

// TryFold implements Observer: first successful member wins.
func (c *Chain) TryFold(pc uint32) (Fold, bool) {
	for _, m := range c.members {
		if f, ok := m.TryFold(pc); ok {
			return f, true
		}
	}
	return Fold{}, false
}

// OnIssue implements Observer (fan-out).
func (c *Chain) OnIssue(rd isa.Reg) {
	for _, m := range c.members {
		m.OnIssue(rd)
	}
}

// OnValue implements Observer (fan-out).
func (c *Chain) OnValue(rd isa.Reg, v int32) {
	for _, m := range c.members {
		m.OnValue(rd, v)
	}
}

// OnBankSwitch implements Observer (fan-out).
func (c *Chain) OnBankSwitch(bank int) {
	for _, m := range c.members {
		m.OnBankSwitch(bank)
	}
}

// OnBranch implements Observer (fan-out).
func (c *Chain) OnBranch(pc uint32, taken, folded bool) {
	for _, m := range c.members {
		m.OnBranch(pc, taken, folded)
	}
}

// OnCommit implements Observer (fan-out).
func (c *Chain) OnCommit(cm Commit) {
	for _, m := range c.members {
		m.OnCommit(cm)
	}
}

// OnEvent implements Observer (fan-out).
func (c *Chain) OnEvent(e Event) {
	for _, m := range c.members {
		m.OnEvent(e)
	}
}

// SetClock implements Clocked by forwarding the clock to every Clocked
// member.
func (c *Chain) SetClock(fn func() uint64) {
	for _, m := range c.members {
		if cl, ok := m.(Clocked); ok {
			cl.SetClock(fn)
		}
	}
}
