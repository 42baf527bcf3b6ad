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
	// folds counts the folds of each entry under its current PC; moved
	// keeps the counts of PCs that an entry has since left (Realias,
	// Clear), so that Engine.FoldsByPC reports every fold under the PC
	// it was fetched from.
	folds  []uint64
	moved  map[uint32]uint64
	screen Screen
}

// Screen is a direct-mapped index over a BIT's loaded PCs: slot
// (pc>>2) mod screenBits holds k+1 when entry k alone is loaded at such
// a PC, sharedSlot when several entries are (PCs a multiple of 4 KB
// apart) or k+1 does not fit, and 0 when none is. Most fetches miss the
// BIT, and a zero slot answers them at once; a hit reads its entry
// from the slot instead of probing a map.
type Screen [screenBits]uint8

// screenBits is the size of a BIT's screen: one slot per word of a
// 4 KB text window, so a text segment up to that size maps every PC to
// its own slot.
const screenBits = 1024

// sharedSlot marks a screen slot whose entry must be searched for.
const sharedSlot = 255

func screenIndex(pc uint32) uint32 { return (pc >> 2) % screenBits }

// Has reports whether pc's screen slot is set. A zero slot proves that
// pc misses the BIT; a set one means it may hit.
func (s *Screen) Has(pc uint32) bool { return s[screenIndex(pc)] != 0 }

// mark sets the screen slot of entry k.
func (b *BIT) mark(k int) {
	i := screenIndex(b.entries[k].PC)
	if b.screen[i] == 0 && k+1 < sharedSlot {
		b.screen[i] = uint8(k + 1)
	} else {
		b.screen[i] = sharedSlot
	}
}

// remark rebuilds screen slot i from the entries.
func (b *BIT) remark(i uint32) {
	b.screen[i] = 0
	for k := range b.entries {
		if screenIndex(b.entries[k].PC) == i {
			b.mark(k)
		}
	}
}

// find returns the index of pc's entry, or -1.
func (b *BIT) find(pc uint32) int {
	switch s := b.screen[screenIndex(pc)]; s {
	case 0:
		return -1
	case sharedSlot:
		for k := range b.entries {
			if b.entries[k].PC == pc {
				return k
			}
		}
		return -1
	default:
		if k := int(s) - 1; b.entries[k].PC == pc {
			return k
		}
		return -1
	}
}

// spill moves entry k's fold count to moved, under its current PC.
func (b *BIT) spill(k int) {
	n := b.folds[k]
	if n == 0 {
		return
	}
	if b.moved == nil {
		b.moved = make(map[uint32]uint64)
	}
	b.moved[b.entries[k].PC] += n
	b.folds[k] = 0
}

// NewBIT returns an empty table with the given capacity.
func NewBIT(capacity int) *BIT {
	if capacity <= 0 {
		capacity = DefaultBITEntries
	}
	return &BIT{cap: capacity}
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
	if b.find(e.PC) >= 0 {
		return fmt.Errorf("core: BIT already holds pc=0x%08x", e.PC)
	}
	b.entries = append(b.entries, e)
	b.folds = append(b.folds, 0)
	b.mark(len(b.entries) - 1)
	return nil
}

// Lookup finds the entry for a branch PC.
func (b *BIT) Lookup(pc uint32) (BITEntry, bool) {
	if k := b.find(pc); k >= 0 {
		return b.entries[k], true
	}
	return BITEntry{}, false
}

// Clear removes all entries (re-customization between program phases).
// The folds of the removed entries still count under their PCs.
func (b *BIT) Clear() {
	for k := range b.entries {
		b.spill(k)
	}
	b.entries = b.entries[:0]
	b.folds = b.folds[:0]
	b.screen = Screen{}
}

// BDT is the Branch Direction Table: per-register direction bits and
// validity counters (paper Figure 8 shows a 4-register example with
// "!=0" and "<=0" columns; the full table covers all 32 registers and
// all 6 zero comparisons).
//
// Register r lives in row r+1, and row 0 is a sink (BDTIndex): the
// superblock engine's fused loop issues and delivers every pipeline
// slot into its index without a test, so a word that writes no
// register, the zero register and a bubble (a zeroed slot) all land in
// row 0, which no reader sees. A delivery stores the value; the
// direction bits are computed when Holds reads them.
type BDT struct {
	val   [bdtRows]int32 // latest delivered value
	count [bdtRows]int32 // in-flight producers
	// state is knownBit (at least one value delivered) plus the
	// direction bits a mutation flipped since the last delivery, XORed
	// with zeroDirs. A row reads zero at power-on, when val is 0 too, so
	// it holds no condition until its first delivery.
	state [bdtRows]uint8
}

const (
	// bdtRows covers the sink and the 32 register rows; a power of two
	// lets an index mask stand in for the bounds check.
	bdtRows = 64
	// BDTSink is the BDT index of a producer that writes no register.
	BDTSink  uint8 = 0
	knownBit uint8 = 1 << 7
	// zeroDirs is isa.DirBits(0).
	zeroDirs uint8 = 1<<isa.CondEQ | 1<<isa.CondLE | 1<<isa.CondGE
	// delivered is the state a delivery leaves: known, nothing flipped.
	delivered = knownBit | zeroDirs
)

// BDTIndex returns the BDT index a producer of r issues and delivers
// into: r's row, or BDTSink for the zero register, which is never
// counted.
func BDTIndex(r isa.Reg) uint8 {
	if r == isa.RegZero {
		return BDTSink
	}
	return row(r)
}

// row is where register r's state lives.
func row(r isa.Reg) uint8 { return uint8(r) + 1 }

// Issue is OnIssue by BDT index.
func (d *BDT) Issue(i uint8) { d.count[i%bdtRows]++ }

// Deliver is OnValue by BDT index.
func (d *BDT) Deliver(i uint8, v int32) {
	i %= bdtRows
	n := d.count[i]
	if n > 0 {
		n--
	}
	d.count[i] = n
	d.val[i] = v
	d.state[i] = delivered
}

// OnIssue records that a producer of r entered decode.
func (d *BDT) OnIssue(r isa.Reg) { d.Issue(BDTIndex(r)) }

// OnValue delivers a produced value of r at the update point.
func (d *BDT) OnValue(r isa.Reg, v int32) { d.Deliver(BDTIndex(r), v) }

// Valid reports whether the precomputed predicate for r is
// trustworthy: no in-flight producer and at least one delivery.
func (d *BDT) Valid(r isa.Reg) bool {
	i := row(r) % bdtRows
	return d.count[i] == 0 && d.state[i]&knownBit != 0
}

// Counter returns the current validity counter of r (for tests and
// introspection).
func (d *BDT) Counter(r isa.Reg) int32 { return d.count[row(r)%bdtRows] }

// Holds reports the precomputed direction of condition c on register r.
func (d *BDT) Holds(r isa.Reg, c isa.Cond) bool {
	i := row(r) % bdtRows
	return (isa.DirBits(d.val[i])^d.state[i]^zeroDirs)>>c&1 == 1
}

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
	sink   obs.EventSink   // nil unless SetEventSink was called
	mutate func(pc uint32) // nil unless SetMutator was called
}

// SetEventSink attaches a pipeline event sink (typically an
// obs.Tracer): the engine then emits EvBITHit, EvFoldFallback,
// EvBDTValid/EvBDTInvalid transition and EvBankSwitch events. Events
// carry no cycle; a Clocked sink installed into the CPU stamps them.
// Attach it before cpu.New: a unit with a sink demands cpu.Caps.Events,
// because the superblock engine's fused loop emits no events.
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
	e := &Engine{cfg: cfg}
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

// ActiveBank returns the index of the bank consulted at fetch.
func (e *Engine) ActiveBank() int { return e.active }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// FoldsByPC returns the folds of each branch, keyed by the PC each fold
// was fetched from: every bank's per-entry counts plus the counts its
// entries left behind when Realias, LoadBank or Clear moved them.
func (e *Engine) FoldsByPC() map[uint32]uint64 {
	out := make(map[uint32]uint64)
	for _, b := range e.banks {
		for k, n := range b.folds {
			if n > 0 {
				out[b.entries[k].PC] += n
			}
		}
		for pc, n := range b.moved {
			out[pc] += n
		}
	}
	return out
}

// Reset clears the BDT and statistics but keeps the loaded BITs (a
// fresh program run on the same customization).
func (e *Engine) Reset() {
	e.bdt.Reset()
	e.stats = Stats{}
	e.active = 0
	for _, b := range e.banks {
		clear(b.folds)
		b.moved = nil
	}
}

// BDTState exposes the BDT for tests and visualization.
func (e *Engine) BDTState() *BDT { return &e.bdt }

// Screen returns the active bank's screen to a fetch loop that tests
// it inline and calls TryFold only when the slot is set. The loop must
// report the fetches it screens out through Screened, so that Lookups
// still counts every fetch. The screen is valid until the next bank
// switch. Screen returns nil when a mutation policy is installed: the
// policy runs on every fetch, so every fetch must reach TryFold.
func (e *Engine) Screen() *Screen {
	if e.mutate != nil {
		return nil
	}
	return &e.banks[e.active].screen
}

// Screened counts n fetches that a caller screened out (see Screen) as
// BIT lookups.
func (e *Engine) Screened(n uint64) { e.stats.Lookups += n }

// TryFold is the fetch-stage BIT lookup and, on a valid predicate,
// the branch replacement of the paper's Figure 4. A mutation policy,
// if installed, runs first.
func (e *Engine) TryFold(pc uint32) (Fold, bool) {
	if e.mutate != nil {
		e.mutate(pc)
	}
	e.stats.Lookups++
	b := e.banks[e.active]
	k := b.find(pc)
	if k < 0 {
		return Fold{}, false
	}
	en := &b.entries[k]
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
	b.folds[k]++
	if taken {
		e.stats.FoldsTaken++
		// "PC=BranchTargetAddress+4; instr=BranchTargetInstruction"
		return Fold{Word: en.BTI, PC: en.BTA, Next: en.BTA + 4, Taken: true}, true
	}
	// "PC=PC+8; instr=BranchFallthroughInstr"
	return Fold{Word: en.BFI, PC: pc + 4, Next: pc + 8, Taken: false}, true
}

// OnIssue notes that a producer of rd entered decode. The superblock
// engine's fused loop, which never runs a unit with an event sink,
// issues into the BDT directly (BDT.Issue).
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
