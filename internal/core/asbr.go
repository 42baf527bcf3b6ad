// Package core implements Application-Specific Branch Resolution
// (ASBR), the DAC'01 paper's contribution: a late-customizable fetch-
// stage mechanism that folds statically selected conditional branches
// out of the instruction stream.
//
// Two hardware structures cooperate (paper §4, §7):
//
//   - The Branch Identification Table (BIT) maps a branch PC to the
//     statically pre-decoded branch information: target address (BA),
//     target instruction (inst1/BTI), fall-through instruction
//     (inst2/BFI), and a direction index (DI) naming the condition
//     register and comparison.
//   - The Branch Direction Table (BDT, paper Figure 8) holds, per
//     architectural register, the precomputed zero-comparison
//     direction bits and a validity counter. The counter is
//     incremented when an instruction producing the register enters
//     decode and decremented when the value is delivered at the
//     configured update point; the predicate is trustworthy only at
//     zero.
//
// When a fetch PC hits the active BIT and the predicate is valid, the
// branch is replaced in the fetch slot by its target or fall-through
// instruction and the PC is redirected past it: the branch never
// enters the pipeline (Figure 4's ASBR algorithm). On a BIT hit with
// an invalid predicate the engine declines and the branch falls back
// to the auxiliary predictor.
//
// Multiple BIT banks can be loaded and switched with the bitsw
// instruction at loop transitions (§7), preserving microarchitectural
// reprogrammability.
package core

import (
	"fmt"

	"asbr/internal/isa"
	"asbr/internal/obs"
)

// BITEntry is one Branch Identification Table row (paper §7).
type BITEntry struct {
	PC   uint32   // branch address (the associative lookup key)
	BTA  uint32   // branch target address ("BA" in the paper)
	BTI  uint32   // branch target instruction word (inst1)
	BFI  uint32   // fall-through instruction word (inst2)
	Reg  isa.Reg  // direction index: condition register...
	Cond isa.Cond // ...and architecture comparison kind
}

// String renders the entry compactly for reports.
func (e BITEntry) String() string {
	return fmt.Sprintf("BIT{pc=0x%08x %s %s -> 0x%08x}", e.PC, e.Reg, e.Cond, e.BTA)
}

// BIT is one Branch Identification Table bank with a fixed capacity.
type BIT struct {
	cap     int
	entries []BITEntry
	byPC    map[uint32]int
	// screen is a direct-mapped membership filter over the loaded PCs:
	// bit screenIndex(pc) is set for every entry. Most fetches miss the
	// BIT, and a clear bit answers them without the map probe.
	screen [screenBits / 64]uint64
}

// screenBits is the size of a BIT's membership screen: one bit per
// word of a 4 KB text window, so a text segment up to that size maps
// every PC to its own bit.
const screenBits = 1024

func screenIndex(pc uint32) uint32 { return (pc >> 2) % screenBits }

// mark sets the screen bit of pc.
func (b *BIT) mark(pc uint32) {
	i := screenIndex(pc)
	b.screen[i/64] |= 1 << (i % 64)
}

// NewBIT returns an empty table with the given capacity.
func NewBIT(capacity int) *BIT {
	if capacity <= 0 {
		capacity = DefaultBITEntries
	}
	return &BIT{cap: capacity, byPC: make(map[uint32]int, capacity)}
}

// Capacity returns the maximum number of entries.
func (b *BIT) Capacity() int { return b.cap }

// Len returns the number of loaded entries.
func (b *BIT) Len() int { return len(b.entries) }

// Entries returns a copy of the loaded entries.
func (b *BIT) Entries() []BITEntry {
	out := make([]BITEntry, len(b.entries))
	copy(out, b.entries)
	return out
}

// Add loads one entry. It fails when the table is full or the PC is
// already present.
func (b *BIT) Add(e BITEntry) error {
	if len(b.entries) >= b.cap {
		return fmt.Errorf("core: BIT full (%d entries)", b.cap)
	}
	if _, dup := b.byPC[e.PC]; dup {
		return fmt.Errorf("core: BIT already holds pc=0x%08x", e.PC)
	}
	b.byPC[e.PC] = len(b.entries)
	b.entries = append(b.entries, e)
	b.mark(e.PC)
	return nil
}

// Lookup finds the entry for a branch PC. The screen answers most
// misses; only a PC whose screen bit is set pays the map probe.
func (b *BIT) Lookup(pc uint32) (BITEntry, bool) {
	if i := screenIndex(pc); b.screen[i/64]&(1<<(i%64)) == 0 {
		return BITEntry{}, false
	}
	i, ok := b.byPC[pc]
	if !ok {
		return BITEntry{}, false
	}
	return b.entries[i], true
}

// Clear removes all entries (re-customization between program phases).
func (b *BIT) Clear() {
	b.entries = b.entries[:0]
	b.byPC = make(map[uint32]int, b.cap)
	b.screen = [screenBits / 64]uint64{}
}

// BDT is the Branch Direction Table: per-register direction bits and
// validity counters (paper Figure 8 shows a 4-register example with
// "!=0" and "<=0" columns; the full table covers all 32 registers and
// all 6 zero comparisons).
type BDT struct {
	dirs  [isa.NumRegs]uint8 // bitmask: bit c set iff Cond(c) holds
	count [isa.NumRegs]int32 // in-flight producers
	known [isa.NumRegs]bool  // at least one value delivered
}

// OnIssue records that a producer of r entered decode.
func (d *BDT) OnIssue(r isa.Reg) {
	if r != isa.RegZero {
		d.count[r]++
	}
}

// OnValue delivers a produced value of r at the update point.
func (d *BDT) OnValue(r isa.Reg, v int32) {
	if r == isa.RegZero {
		return
	}
	if d.count[r] > 0 {
		d.count[r]--
	}
	d.dirs[r] = isa.DirBits(v)
	d.known[r] = true
}

// Valid reports whether the precomputed predicate for r is
// trustworthy: no in-flight producer and at least one delivery.
func (d *BDT) Valid(r isa.Reg) bool {
	return d.count[r] == 0 && d.known[r]
}

// Counter returns the current validity counter of r (for tests and
// introspection).
func (d *BDT) Counter(r isa.Reg) int32 { return d.count[r] }

// Holds reports the precomputed direction of condition c on register r.
func (d *BDT) Holds(r isa.Reg, c isa.Cond) bool { return d.dirs[r]>>c&1 == 1 }

// Reset restores the power-on state.
func (d *BDT) Reset() {
	*d = BDT{}
}

// DefaultBITEntries is the paper's evaluated BIT size (16 entries).
const DefaultBITEntries = 16

// Config parameterizes the engine.
type Config struct {
	// BITEntries is the per-bank capacity (default 16, as evaluated in
	// the paper).
	BITEntries int
	// Banks is the number of BIT copies switchable via bitsw
	// (default 1; paper §7's mechanism for covering multiple loops).
	Banks int
	// TrackValidity enables the BDT validity counters (default).
	// Disabling them is the unsafe-fold ablation: every BIT hit folds
	// using the latest delivered value, which measures the upper
	// bound of fold coverage but may change architectural results.
	TrackValidity bool
}

func (c *Config) fillDefaults() {
	if c.BITEntries <= 0 {
		c.BITEntries = DefaultBITEntries
	}
	if c.Banks <= 0 {
		c.Banks = 1
	}
}

// DefaultConfig returns the paper's evaluated configuration: one
// 16-entry BIT with validity tracking.
func DefaultConfig() Config {
	return Config{BITEntries: DefaultBITEntries, Banks: 1, TrackValidity: true}
}

// Stats counts engine activity.
type Stats struct {
	Lookups      uint64 // fetches checked against the BIT
	Hits         uint64 // BIT matches
	Folds        uint64 // successful folds
	FoldsTaken   uint64
	Fallbacks    uint64 // BIT hit but predicate invalid: auxiliary predictor used
	BankSwitches uint64
}

// FoldRate returns folds per BIT hit.
func (s Stats) FoldRate() float64 {
	if s.Hits == 0 {
		return 0
	}
	return float64(s.Folds) / float64(s.Hits)
}

// Fold describes a successful branch fold returned by TryFold: the
// fetched branch is replaced in the fetch slot by the instruction word
// Word whose architectural address is PC, and fetch continues at Next
// (paper Figure 4: BTA+4 when taken, branch PC+8 when not).
type Fold struct {
	Word  uint32 // replacement instruction (BTI or BFI)
	PC    uint32 // architectural address of the replacement instruction
	Next  uint32 // next fetch address
	Taken bool   // folded direction
}

// Engine is the ASBR unit: the BIT banks and the BDT of one machine,
// attached as cpu.Config.Fold. The CPU calls it directly (OnIssue at
// decode, OnValue at the BDT update point, TryFold at fetch,
// OnBankSwitch at a bitsw commit) on every engine; the superblock
// engine's fused loop makes the same calls.
//
// A mutation policy (SetMutator) corrupts the unit's own storage at
// each fetch before the BIT lookup; the fault injector is one. The
// lookup and the BDT protocol are those of a clean run, only the
// stored state differs.
type Engine struct {
	cfg    Config
	banks  []*BIT
	active int
	bdt    BDT
	stats  Stats
	perPC  map[uint32]uint64 // folds per branch
	sink   obs.EventSink     // nil unless SetEventSink was called
	mutate func(pc uint32)   // nil unless SetMutator was called
}

// SetEventSink attaches a pipeline event sink (typically an
// obs.Tracer): the engine then emits EvBITHit, EvFoldFallback,
// EvBDTValid/EvBDTInvalid transition and EvBankSwitch events. Events
// carry no cycle; a Clocked sink installed into the CPU stamps them.
func (e *Engine) SetEventSink(s obs.EventSink) { e.sink = s }

// SetMutator installs a per-fetch state-mutation policy: TryFold calls
// m(pc) first, before the BIT lookup, so m may rewrite BIT and BDT
// cells (mutate.go) and the lookup sees the result. Nil removes it.
func (e *Engine) SetMutator(m func(pc uint32)) { e.mutate = m }

// Sink returns the attached event sink, if any (so collaborators like
// the fault injector can emit into the same stream).
func (e *Engine) Sink() (obs.EventSink, bool) { return e.sink, e.sink != nil }

// NewEngine builds an engine with empty BIT banks.
func NewEngine(cfg Config) *Engine {
	cfg.fillDefaults()
	e := &Engine{cfg: cfg, perPC: make(map[uint32]uint64)}
	for i := 0; i < cfg.Banks; i++ {
		e.banks = append(e.banks, NewBIT(cfg.BITEntries))
	}
	return e
}

// LoadBank installs entries into bank (replacing its contents): the
// paper's "branch information is loaded into the processor core in a
// similar way as the program code".
func (e *Engine) LoadBank(bank int, entries []BITEntry) error {
	if bank < 0 || bank >= len(e.banks) {
		return fmt.Errorf("core: bank %d out of range (%d banks)", bank, len(e.banks))
	}
	b := e.banks[bank]
	b.Clear()
	for _, en := range entries {
		if err := b.Add(en); err != nil {
			return err
		}
	}
	return nil
}

// Load installs entries into bank 0 (the common single-bank case).
func (e *Engine) Load(entries []BITEntry) error { return e.LoadBank(0, entries) }

// Bank returns the table of the given bank for inspection.
func (e *Engine) Bank(i int) *BIT { return e.banks[i] }

// ActiveBank returns the index of the bank consulted at fetch.
func (e *Engine) ActiveBank() int { return e.active }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// FoldsByPC returns per-branch fold counts.
func (e *Engine) FoldsByPC() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(e.perPC))
	for k, v := range e.perPC {
		out[k] = v
	}
	return out
}

// Reset clears the BDT and statistics but keeps the loaded BITs (a
// fresh program run on the same customization).
func (e *Engine) Reset() {
	e.bdt.Reset()
	e.stats = Stats{}
	e.active = 0
	e.perPC = make(map[uint32]uint64)
}

// BDTState exposes the BDT for tests and visualization.
func (e *Engine) BDTState() *BDT { return &e.bdt }

// TryFold is the fetch-stage BIT lookup and, on a valid predicate,
// the branch replacement of the paper's Figure 4. A mutation policy,
// if installed, runs first.
func (e *Engine) TryFold(pc uint32) (Fold, bool) {
	if e.mutate != nil {
		e.mutate(pc)
	}
	e.stats.Lookups++
	en, ok := e.banks[e.active].Lookup(pc)
	if !ok {
		return Fold{}, false
	}
	e.stats.Hits++
	if e.sink != nil {
		e.sink.OnEvent(obs.Event{Kind: obs.EvBITHit, PC: pc, Arg: uint64(en.Reg)})
	}
	if e.cfg.TrackValidity && !e.bdt.Valid(en.Reg) {
		e.stats.Fallbacks++
		if e.sink != nil {
			e.sink.OnEvent(obs.Event{Kind: obs.EvFoldFallback, PC: pc, Arg: uint64(en.Reg)})
		}
		return Fold{}, false
	}
	taken := e.bdt.Holds(en.Reg, en.Cond)
	e.stats.Folds++
	e.perPC[pc]++
	if taken {
		e.stats.FoldsTaken++
		// "PC=BranchTargetAddress+4; instr=BranchTargetInstruction"
		return Fold{Word: en.BTI, PC: en.BTA, Next: en.BTA + 4, Taken: true}, true
	}
	// "PC=PC+8; instr=BranchFallthroughInstr"
	return Fold{Word: en.BFI, PC: pc + 4, Next: pc + 8, Taken: false}, true
}

// OnIssue notes that a producer of rd entered decode. The untraced
// path is kept small enough to inline into the superblock engine's
// fused loop.
func (e *Engine) OnIssue(rd isa.Reg) {
	if e.sink == nil {
		e.bdt.OnIssue(rd)
	} else {
		e.onIssueTraced(rd)
	}
}

func (e *Engine) onIssueTraced(rd isa.Reg) {
	was := e.bdt.Valid(rd)
	e.bdt.OnIssue(rd)
	if was && !e.bdt.Valid(rd) {
		e.sink.OnEvent(obs.Event{Kind: obs.EvBDTInvalid, Arg: uint64(rd)})
	}
}

// OnValue delivers rd's value at the update point: the paper's Early
// Condition Evaluation (Figure 3) — "every time a register is being
// committed, all possible conditions associated with this register
// are updated".
func (e *Engine) OnValue(rd isa.Reg, v int32) {
	if e.sink == nil {
		e.bdt.OnValue(rd, v)
		return
	}
	was := e.bdt.Valid(rd)
	e.bdt.OnValue(rd, v)
	if !was && e.bdt.Valid(rd) {
		e.sink.OnEvent(obs.Event{Kind: obs.EvBDTValid, Arg: uint64(rd)})
	}
}

// OnBankSwitch handles the bitsw commit: it activates bank.
func (e *Engine) OnBankSwitch(bank int) {
	e.stats.BankSwitches++
	if bank >= 0 && bank < len(e.banks) {
		e.active = bank
	}
	if e.sink != nil {
		e.sink.OnEvent(obs.Event{Kind: obs.EvBankSwitch, Arg: uint64(bank)})
	}
}
