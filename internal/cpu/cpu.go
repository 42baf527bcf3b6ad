// Package cpu implements a cycle-accurate, in-order, single-issue,
// five-stage pipeline simulator (IF ID EX MEM WB) for the project's
// MIPS-like ISA — the evaluation platform of the DAC'01 ASBR paper
// ("a pipelined architecture with a 5 stage pipeline, in-order single
// issue ... 8KB instruction cache, and 8KB data cache").
//
// Pipeline model:
//
//   - Full ALU forwarding; a one-cycle load-use interlock.
//   - Conditional branches are predicted at fetch by a pluggable
//     branch unit (direction predictor + BTB, package predict) and
//     resolved at the end of EX; a misprediction squashes the two
//     younger fetch slots (2-cycle penalty). A taken prediction can
//     redirect fetch only on a BTB hit.
//   - Direct jumps (j/jal) redirect at decode (1-cycle penalty);
//     indirect jumps (jr/jalr) redirect at EX (2-cycle penalty).
//   - mult/div occupy EX for a configurable number of cycles; HI/LO
//     are read by mfhi/mflo in EX.
//   - I-cache and D-cache misses stall fetch and MEM respectively.
//   - An optional ASBR unit (package core) is consulted at fetch: a
//     folded branch never enters the pipeline; its replacement
//     instruction (branch target or fall-through instruction) is
//     injected into the fetch slot instead, exactly as in the paper's
//     Figure 4.
//
// The simulator is functional+timing: instruction semantics execute in
// EX/MEM and commit at WB, while the latches, stalls and squashes
// produce the cycle counts.
package cpu

import (
	"context"
	"fmt"
	"io"
	"strings"

	"asbr/internal/core"
	"asbr/internal/isa"
	"asbr/internal/mem"
	"asbr/internal/obs"
	"asbr/internal/predict"
)

// Stage identifies a pipeline stage, used to configure the BDT update
// point (the paper's threshold optimization, §5.2).
type Stage int

// Pipeline stages.
const (
	StageIF Stage = iota
	StageID
	StageEX  // update point "end of EX": paper threshold 2
	StageMEM // update point "forwarding path after EX": paper threshold 3 (default)
	StageWB  // update point "register commit": paper threshold 4
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageIF:
		return "IF"
	case StageID:
		return "ID"
	case StageEX:
		return "EX"
	case StageMEM:
		return "MEM"
	case StageWB:
		return "WB"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// ParseUpdatePoint maps the wire spelling of a BDT update point
// (ex|mem|wb, case-insensitive, "" = the paper's default MEM) onto its
// Stage — the one vocabulary the sweep protocol, replay records and the
// DSE grammar all share.
func ParseUpdatePoint(s string) (Stage, error) {
	switch strings.ToLower(s) {
	case "", "mem":
		return StageMEM, nil
	case "ex":
		return StageEX, nil
	case "wb":
		return StageWB, nil
	}
	return StageMEM, fmt.Errorf("cpu: unknown update point %q (want ex|mem|wb)", s)
}

// Engine selects the step-loop implementation of a machine.
type Engine int

const (
	// EngineAuto picks the fastest engine the configuration is
	// eligible for — see SelectEngine, the single resolution rule
	// every builder shares.
	EngineAuto Engine = iota
	// EngineFast runs the per-cycle pipeline with every fetch served
	// from the predecode table (Predecode): nothing is decoded or
	// allocated per instruction. It supports every capability.
	EngineFast
	// EngineReference runs the same per-cycle pipeline but decodes
	// every fetched word afresh into a new heap DecodedInst and looks
	// up the I-cache on every fetch — the pre-fast-path cost profile. It is kept as the lockstep-equivalence
	// baseline and the anchor the benchmark harness measures speedups
	// against; all engines share the stage code, so their counters are
	// identical.
	EngineReference
	// EngineSuperblock is EngineFast plus a fused loop (superblock.go):
	// it batch-advances whole cycles — branches, mispredictions, jumps
	// and load-use bubbles included — and hands the cycles it does not
	// model (cache misses, mult/div, syscalls) back to the per-cycle
	// stages. A machine with an ASBR unit (Config.Fold) runs the
	// fold-aware variant, which also drives the BDT and folds at fetch;
	// a branch observer (Config.Observer) is called from either loop.
	// Its counters are bit-identical to the other engines. The other
	// hooks (Caps) run only in the per-cycle stages, so a machine that
	// attaches any falls back to EngineFast.
	EngineSuperblock
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineFast:
		return "fast"
	case EngineReference:
		return "reference"
	case EngineSuperblock:
		return "superblock"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// EngineNames lists the engine names ParseEngine accepts.
func EngineNames() []string { return []string{"auto", "fast", "superblock", "reference"} }

// ParseEngine resolves an engine name from a CLI flag or API field.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "auto":
		return EngineAuto, nil
	case "fast":
		return EngineFast, nil
	case "superblock":
		return EngineSuperblock, nil
	case "reference", "ref":
		return EngineReference, nil
	}
	return EngineAuto, fmt.Errorf("cpu: unknown engine %q (want auto|fast|superblock|reference)", name)
}

// BranchObserver receives every dynamic conditional-branch outcome,
// including folded ones. It is the profiling tap (internal/profile).
type BranchObserver interface {
	OnBranch(pc uint32, taken bool, folded bool)
}

// Commit describes one committed (write-back) instruction: its address,
// opcode and architectural effects. It is the unit the fault harness's
// divergence checker compares across machines, so it carries everything
// architecturally observable about the instruction — register write and
// store effect — but not timing.
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

// CommitObserver receives every committed instruction in program order.
// It is the architectural tap the divergence checker (internal/fault)
// attaches to both machines of a lockstep comparison.
type CommitObserver interface {
	OnCommit(Commit)
}

// Config assembles a simulated machine.
type Config struct {
	// ICache and DCache configure the first-level caches. A zero
	// SizeBytes disables the cache (single-cycle ideal memory).
	ICache mem.CacheConfig
	DCache mem.CacheConfig
	// Branch is the fetch-stage branch unit. Nil means always
	// not-taken with no BTB (the paper's predictor-less baseline).
	Branch *predict.Unit
	// Predictor is a branch-unit spec ("family[:key=value,...]", e.g.
	// "tage:tables=4,hist=64", or a legacy alias like "bi512"; see
	// predict.ParseSpec) to build instead of supplying Branch directly.
	// It is how every CLI and API caller selects a predictor; setting
	// both Predictor and Branch is an ErrBadConfig.
	Predictor string
	// Engine selects the step-loop implementation. EngineAuto (the
	// default) resolves through SelectEngine to the fastest engine the
	// configuration's capability demands permit; so does an explicit
	// EngineSuperblock when a hook makes it ineligible. EngineFast and
	// EngineReference are always honored verbatim. The engine New
	// actually chose is reported by (*CPU).ResolvedEngine.
	Engine Engine
	// Demand declares capability requirements that do not arrive as
	// Config hooks — e.g. a serving layer that will record and replay
	// the run sets Demand.Record. SelectEngine folds Demand into the
	// hook-derived capability set; any demand disqualifies the
	// superblock engine. See Caps.
	Demand Caps
	// Predecoded, when non-nil, supplies a shared predecode table for
	// the program (built once by Predecode, validated against the
	// program in New) to serve the fast and superblock engines' fetches.
	// Nil makes New build a private one. Ignored by EngineReference,
	// which decodes every fetch.
	Predecoded *Predecoded
	// RAS, when non-nil, predicts `jr ra` targets at fetch (calls push
	// their return address, returns pop it). An extension beyond the
	// paper's platform; disabled by default.
	RAS *predict.RAS
	// Fold is the machine's optional ASBR unit: the BIT banks and BDT
	// of package core, consulted at fetch. The CPU calls it directly
	// (OnIssue at decode, OnValue at the BDTUpdate point, TryFold at
	// fetch, OnBankSwitch at a bitsw commit), and a machine with an
	// ASBR unit runs on the superblock engine, whose fused loop folds
	// branches itself (see SelectEngine). A fault-injection policy
	// lives on the unit (core.Engine.SetMutator), so a faulted unit
	// attaches here the same way.
	Fold *core.Engine
	// BDTUpdate selects where register values are delivered to the
	// ASBR unit: StageEX, StageMEM (default) or StageWB.
	BDTUpdate Stage
	// MultCycles and DivCycles are EX occupancies (defaults 4 and 16).
	MultCycles int
	DivCycles  int
	// ExtraMispredictCycles adds front-end redirect bubbles after a
	// conditional-branch misprediction, on top of the two squashed
	// slots (models the deeper fetch/dispatch front end of the
	// paper's SimpleScalar platform, whose Figure 6 numbers imply an
	// effective penalty well above the bare 2 cycles of a textbook
	// 5-stage). Default 2 (total penalty 4).
	ExtraMispredictCycles int
	// NoExtraMispredict disables the default ExtraMispredictCycles.
	NoExtraMispredict bool
	// MaxCycles is the watchdog cycle budget (default 2^40): a guest
	// that has not halted when the budget runs out terminates with a
	// SimError carrying ErrCycleLimit instead of hanging the caller.
	MaxCycles uint64
	// MemLimit bounds data-access effective addresses (default
	// DefaultMemLimit). An access at or above the limit terminates the
	// run with ErrMemOutOfRange instead of silently growing the sparse
	// memory (wild pointers in a guest would otherwise look like an
	// engine memory leak).
	MemLimit uint32
	// Observer, when non-nil, sees every conditional branch outcome.
	Observer BranchObserver
	// Commits, when non-nil, sees every committed instruction (the
	// divergence-checker tap; see the Commit type).
	Commits CommitObserver
	// Obs, when non-nil, receives the typed pipeline event stream
	// (fetch, fold, issue, branch, mispredict, commit), stamped with
	// the cycle. If it implements obs.Clocked, New installs the
	// machine's cycle counter as its clock, so events the ASBR unit
	// emits into the same sink (core.Engine.SetEventSink) are stamped
	// too. Obs is the only hook for events; Fold, Observer and Commits
	// each own their aspect.
	Obs obs.EventSink
	// Trace, when non-nil, receives a per-cycle pipeline-occupancy
	// row (a textbook pipeline diagram; ASBR-injected instructions
	// are starred). Expensive; for debugging and teaching.
	Trace io.Writer
}

// DefaultMemLimit is the default data-access address bound: the user
// segment below 0x8000_0000, which contains the text, data and stack
// regions the loader establishes.
const DefaultMemLimit uint32 = 0x8000_0000

func (c *Config) fillDefaults() {
	if c.MultCycles <= 0 {
		c.MultCycles = 4
	}
	if c.DivCycles <= 0 {
		c.DivCycles = 16
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 1 << 40
	}
	if c.MemLimit == 0 {
		c.MemLimit = DefaultMemLimit
	}
	if c.ExtraMispredictCycles == 0 && !c.NoExtraMispredict {
		c.ExtraMispredictCycles = 2
	}
	if c.NoExtraMispredict {
		c.ExtraMispredictCycles = 0
	}
	if c.BDTUpdate != StageEX && c.BDTUpdate != StageWB {
		c.BDTUpdate = StageMEM
	}
	if c.Branch == nil {
		c.Branch = predict.BaselineNotTaken()
	}
}

// Stats aggregates the counters of one simulation.
type Stats struct {
	Cycles       uint64
	Instructions uint64 // committed (folded-out branches never count)

	CondBranches   uint64 // resolved in the pipeline (excludes folded)
	TakenBranches  uint64
	DirMispredicts uint64 // direction wrong
	BTBMissTaken   uint64 // direction right (taken) but fetch could not redirect
	BTBWrongTarget uint64 // redirected to a stale target
	Mispredicts    uint64 // total pipeline flushes from conditional branches

	Folded        uint64 // branches folded out at fetch (never entered the pipe)
	FoldedTaken   uint64
	FoldFallbacks uint64 // BIT hit but BDT invalid: auxiliary predictor used

	Jumps         uint64
	IndirectJumps uint64
	RASHits       uint64 // returns correctly predicted by the RAS
	RASMisses     uint64 // returns the RAS predicted wrongly (or not at all)

	LoadUseStalls uint64
	FetchStalls   uint64 // cycles fetch was blocked on the I-cache
	MemStalls     uint64 // cycles MEM was blocked on the D-cache
	ExStalls      uint64 // cycles EX was occupied by mult/div

	Fetches   uint64 // instructions delivered by fetch (incl. ASBR-injected and wrong-path)
	WrongPath uint64 // fetched instructions squashed before execution

	Syscalls uint64

	ICache mem.CacheStats
	DCache mem.CacheStats
}

// CPI returns cycles per committed instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// PredAccuracy returns the direction-prediction accuracy over the
// conditional branches that were resolved in the pipeline — the "Acc"
// column of the paper's Figure 6.
func (s Stats) PredAccuracy() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return 1 - float64(s.DirMispredicts)/float64(s.CondBranches)
}

// DynamicCondBranches returns all dynamic conditional branches,
// folded or not.
func (s Stats) DynamicCondBranches() uint64 { return s.CondBranches + s.Folded }

// Snapshot projects the full counter set onto the canonical
// cross-layer statistics record (obs.Snapshot): the shape the serve
// wire protocol and the experiment tables consume.
func (s Stats) Snapshot() obs.Snapshot {
	sn := obs.Snapshot{
		Cycles: s.Cycles, Instructions: s.Instructions, CPI: s.CPI(),
		CondBranches: s.CondBranches, TakenBranches: s.TakenBranches,
		Mispredicts: s.Mispredicts, DirMispredicts: s.DirMispredicts,
		Accuracy: s.PredAccuracy(),
		Folded:   s.Folded, FoldedTaken: s.FoldedTaken, FoldFallbacks: s.FoldFallbacks,
		LoadUseStalls: s.LoadUseStalls, FetchStalls: s.FetchStalls,
		MemStalls: s.MemStalls, ExStalls: s.ExStalls,
		ICacheMissRate: s.ICache.MissRate(), DCacheMissRate: s.DCache.MissRate(),
		Fetches: s.Fetches, WrongPath: s.WrongPath,
		ICacheAccesses: s.ICache.Accesses(), DCacheAccesses: s.DCache.Accesses(),
	}
	if dyn := s.DynamicCondBranches(); dyn > 0 {
		sn.FoldCoverage = float64(s.Folded) / float64(dyn)
	}
	return sn
}

// CPU is one simulated machine instance.
type CPU struct {
	cfg  Config
	prog *isa.Program
	mem  *mem.Memory

	// pre is the predecode table fetch reads; nil on the reference
	// engine, which decodes every fetch. resolved is the engine
	// SelectEngine chose. traceBuf is the reusable trace line buffer.
	pre      *Predecoded
	resolved Engine
	traceBuf []byte

	icache *mem.Cache // nil if disabled
	dcache *mem.Cache

	regs [isa.NumRegs]int32
	hi   int32
	lo   int32

	// pipe is the pipeline between runs: Step advances it in place;
	// RunContext copies it onto its stack for the run and back after.
	pipe pipeState

	halted bool
	err    error
	exit   int32

	// Values produced this cycle, delivered to the ASBR unit at the
	// end of the cycle: a value leaving stage S is usable by fetches
	// from the *next* cycle on, which makes the BDT update points
	// EX/MEM/WB correspond exactly to the paper's thresholds 2/3/4.
	pendingVals []pendingVal

	stats Stats

	// Output captured from syscalls.
	Output    []int32
	OutputStr []byte
}

// HaltAddress is the PC that stops fetch: main returns here because
// the loader seeds RA with it.
const HaltAddress uint32 = 0

// New builds a CPU, loads the program image into memory, and points
// the PC at the entry symbol. SP and GP follow the MIPS conventions;
// RA is seeded with HaltAddress so returning from the entry function
// halts cleanly.
//
// Invalid configurations — bad cache geometry, a nil program — are
// reported as a *SimError with ErrBadConfig instead of panicking, so a
// service assembling machines from untrusted configuration degrades
// gracefully.
func New(cfg Config, prog *isa.Program) (*CPU, error) {
	if prog == nil {
		return nil, &SimError{Code: ErrBadConfig, Detail: "nil program"}
	}
	if cfg.Predictor != "" {
		if cfg.Branch != nil {
			return nil, &SimError{Code: ErrBadConfig, Detail: "both Branch and Predictor set"}
		}
		spec, err := predict.ParseSpec(cfg.Predictor)
		if err != nil {
			return nil, &SimError{Code: ErrBadConfig, Detail: err.Error()}
		}
		u, err := spec.Build()
		if err != nil {
			return nil, &SimError{Code: ErrBadConfig, Detail: err.Error()}
		}
		cfg.Branch = u
	}
	switch cfg.Engine {
	case EngineAuto, EngineFast, EngineReference, EngineSuperblock:
	default:
		return nil, &SimError{Code: ErrBadConfig, Detail: fmt.Sprintf("unknown engine %d", cfg.Engine)}
	}
	cfg.fillDefaults()
	c := &CPU{cfg: cfg, prog: prog, mem: mem.NewMemory()}
	if cl, ok := cfg.Obs.(obs.Clocked); ok {
		cl.SetClock(func() uint64 { return c.stats.Cycles })
	}
	c.resolved = SelectEngine(cfg)
	if c.resolved != EngineReference {
		if cfg.Predecoded != nil {
			if !cfg.Predecoded.Matches(prog) {
				return nil, &SimError{Code: ErrBadConfig, Detail: "Predecoded table does not match program"}
			}
			c.pre = cfg.Predecoded
		} else {
			c.pre = Predecode(prog)
		}
	}
	if cfg.ICache.SizeBytes > 0 {
		ic, err := mem.NewCache(cfg.ICache)
		if err != nil {
			return nil, &SimError{Code: ErrBadConfig, Detail: err.Error()}
		}
		c.icache = ic
		c.pipe.lineMask = ^uint32(cfg.ICache.LineBytes - 1)
	}
	if cfg.DCache.SizeBytes > 0 {
		dc, err := mem.NewCache(cfg.DCache)
		if err != nil {
			return nil, &SimError{Code: ErrBadConfig, Detail: err.Error()}
		}
		c.dcache = dc
	}
	for i, w := range prog.Text {
		c.mem.StoreWord(prog.TextBase+uint32(i*4), w)
	}
	c.mem.StoreBytes(prog.DataBase, prog.Data)
	c.pipe.idi, c.pipe.exi, c.pipe.mmi, c.pipe.wbi = 0, 1, 2, 3
	c.pipe.pc = prog.Entry
	c.regs[isa.RegSP] = int32(isa.DefaultStackTop)
	c.regs[isa.RegGP] = int32(prog.DataBase + isa.DefaultGPOffset)
	c.regs[isa.RegRA] = int32(HaltAddress)
	return c, nil
}

// MustNew is like New but panics on a configuration error. It is for
// statically known-good configurations (tests, examples).
func MustNew(cfg Config, prog *isa.Program) *CPU {
	c, err := New(cfg, prog)
	if err != nil {
		panic(err)
	}
	return c
}

// Mem exposes the simulated memory (for harnesses to pour inputs into
// global arrays and read results back).
func (c *CPU) Mem() *mem.Memory { return c.mem }

// Reg returns the architectural value of register r.
func (c *CPU) Reg(r isa.Reg) int32 { return c.regs[r] }

// SetReg sets an architectural register (harness use, before Run).
func (c *CPU) SetReg(r isa.Reg, v int32) {
	if r != isa.RegZero {
		c.regs[r] = v
	}
}

// PC returns the current fetch address.
func (c *CPU) PC() uint32 { return c.pipe.pc }

// ResolvedEngine reports the engine New actually selected: the result
// of SelectEngine over the machine's configuration. It is how CLIs
// surface which step loop an `auto` (or capability-downgraded
// `superblock`) request ended up on.
func (c *CPU) ResolvedEngine() Engine { return c.resolved }

// Halted reports whether execution finished.
func (c *CPU) Halted() bool { return c.halted }

// ExitCode returns the value passed to the exit syscall (0 when the
// program halted by returning from the entry function).
func (c *CPU) ExitCode() int32 { return c.exit }

// Stats returns a copy of the counters, with cache statistics filled in.
func (c *CPU) Stats() Stats {
	s := c.stats
	if c.icache != nil {
		s.ICache = c.icache.Stats()
	}
	if c.dcache != nil {
		s.DCache = c.dcache.Stats()
	}
	return s
}

// Err returns the simulation error, if any (bad instruction, bad PC).
func (c *CPU) Err() error { return c.err }

// Run steps the machine until it halts, errors, or exhausts the
// MaxCycles watchdog budget (terminating with ErrCycleLimit).
func (c *CPU) Run() (Stats, error) {
	return c.RunContext(context.Background())
}

// pollStride is how many cycles RunContext batches between
// context/watchdog polls. Larger strides keep the hot loop tighter;
// cancellation latency grows accordingly.
const pollStride = 1024

// RunContext steps the machine until it halts, errors, exhausts the
// MaxCycles budget (ErrCycleLimit), or ctx is done (ErrCanceled). The
// machine is left exactly at the cycle it stopped on, so a watchdog
// trip still yields the full statistics and architectural state up to
// that point.
//
// Context and watchdog checks run once per pollStride cycles: the
// inner loop is a bare cycle batch whose length is clamped to the
// remaining MaxCycles budget, so ErrCycleLimit still fires at exactly
// Cycle == MaxCycles while the hot path pays no per-cycle poll. The
// pipeline lives on this function's stack for the run; on the
// superblock engine each cycle first offers a fused loop — sbFold with
// an ASBR unit, sbFused without — a chance to batch-advance.
func (c *CPU) RunContext(ctx context.Context) (Stats, error) {
	fused := c.resolved == EngineSuperblock
	asbr := c.cfg.Fold
	st := c.pipe
	for !c.halted && c.err == nil {
		if err := ctx.Err(); err != nil {
			c.fail(ErrCanceled, st.pc, "%v", err)
			break
		}
		if c.stats.Cycles >= c.cfg.MaxCycles {
			c.fail(ErrCycleLimit, st.pc, "exceeded MaxCycles=%d", c.cfg.MaxCycles)
			break
		}
		n := uint64(pollStride)
		if left := c.cfg.MaxCycles - c.stats.Cycles; left < n {
			n = left
		}
		end := c.stats.Cycles + n
		for c.stats.Cycles < end && !c.halted && c.err == nil {
			if fused {
				// A plain if, never a method value: binding the loop to
				// a variable moves st to the heap.
				if asbr != nil {
					if c.sbFold(&st, end, asbr) {
						continue
					}
				} else if c.sbFused(&st, end) {
					continue
				}
			}
			c.cycle(&st)
		}
	}
	c.pipe = st
	return c.Stats(), c.err
}

// StepWatchdog advances the machine one cycle unless the MaxCycles
// budget is already exhausted, in which case it records ErrCycleLimit
// (observable via Err) at exactly Cycle == MaxCycles. It is the
// single-step equivalent of RunContext for callers that interleave two
// machines, such as the lockstep divergence checker (internal/fault).
func (c *CPU) StepWatchdog() {
	if c.halted || c.err != nil {
		return
	}
	if c.stats.Cycles >= c.cfg.MaxCycles {
		c.fail(ErrCycleLimit, c.pipe.pc, "exceeded MaxCycles=%d", c.cfg.MaxCycles)
		return
	}
	c.Step()
}

// Step advances the machine by one clock cycle through the per-cycle
// stages (never the fused loop).
func (c *CPU) Step() {
	if c.halted || c.err != nil {
		return
	}
	c.cycle(&c.pipe)
}

type pendingVal struct {
	reg isa.Reg
	val int32
}

// queueValue defers a BDT delivery to the end of the current cycle.
func (c *CPU) queueValue(r isa.Reg, v int32) {
	c.pendingVals = append(c.pendingVals, pendingVal{r, v})
}

// flushValues delivers this cycle's produced values to the ASBR unit.
func (c *CPU) flushValues() {
	if c.cfg.Fold == nil {
		c.pendingVals = c.pendingVals[:0]
		return
	}
	for _, pv := range c.pendingVals {
		c.cfg.Fold.OnValue(pv.reg, pv.val)
	}
	c.pendingVals = c.pendingVals[:0]
}
