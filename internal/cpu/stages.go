package cpu

import (
	"asbr/internal/isa"
	"asbr/internal/obs"
)

// slot is one in-flight instruction. Slots are values inside
// pipeState and are reused in place: fetch overwrites the whole slot,
// so nothing is allocated or zeroed per instruction beyond that one
// store. d points at the instruction's decoded form — an entry of the
// shared predecode table, or a freshly decoded word on the reference
// engine — and is nil only for poison (out-of-text wrong-path) fetches.
type slot struct {
	d  *DecodedInst
	pc uint32

	predTarget uint32
	result     int32  // value to write at WB (branch: rs operand)
	memAddr    uint32 // effective address (jr/jalr: jump target)
	storeVal   int32  // store data (branch: rt operand)
	exLeft     int32  // EX cycles remaining (mult/div occupancy)

	predTaken    bool
	predRedirect bool
	started      bool // EX work began
	poison       bool // wrong-path fetch outside the text segment
	valid        bool // the slot holds an instruction

	folded    bool // injected by the ASBR unit in place of a branch
	counted   bool // OnIssue fired
	valueSent bool // OnValue already fired (EX-point ALU results)

	// Fused-loop state, which the per-cycle stages neither read nor
	// maintain (the loops set it on entry). cls caches d.fclass and bdt
	// d.bdt, and a bubble (a zeroed slot) reads fcBreak and the BDT
	// sink, so a stage needs no pointer chase. exHold marks a slot that
	// EX holds on its next cycle there: not yet started, it sits directly
	// behind the load that feeds it and pays the one-cycle load-use
	// interlock; started, it is a mult still occupying EX.
	cls    uint8
	bdt    uint8
	exHold bool
}

// pipeState is the front end and pipeline of a machine. RunContext
// keeps it on its stack for the whole run; Step works on the copy kept
// in the CPU. The four stage occupants rotate over the fixed slot pool
// by index: a stage advance swaps two uint8 indices, never copies a
// slot. Indices instead of pointers matter — storing &st.slots[i] into
// a field of st is an assignment cycle that defeats escape analysis
// (golang.org/issue/35518) and would move the whole pipeline to the
// heap, putting a write barrier on every advance. The stages bind
// local *slot pointers per call; locals derived from a non-escaping
// parameter stay barrier-free.
type pipeState struct {
	slots              [4]slot
	idi, exi, mmi, wbi uint8

	pc      uint32 // next fetch address
	fetchPC uint32 // address of the pending (I-cache missing) fetch

	fetchBusy    int // cycles until the pending fetch delivers
	memBusy      int // extra cycles the instruction in MEM still needs
	redirectHold int // extra front-end bubbles after a mispredict

	fetching  bool
	halting   bool // fetch reached the halt address; draining
	killFetch bool // this cycle's fetch slot is wrong-path (decode redirect)

	// I-cache same-line batching (fast and superblock engines):
	// lastLine is the line of the most recent I-cache Access, which
	// left that line most-recently-used. Only fetch touches the
	// I-cache, so a subsequent fetch from the same line is a guaranteed
	// hit whose LRU re-touch would only refresh an already-newest stamp
	// — mem.Cache.AccountHits records it without the lookup. The
	// reference engine calls Access on every fetch, so the equivalence
	// tests check this shortcut against the full lookup. lineMask is
	// ^(LineBytes-1), fixed per machine; lineKnown gates the first
	// fetch.
	lastLine  uint32
	lineMask  uint32
	lineKnown bool
}

// empty reports whether no stage holds an instruction.
func (st *pipeState) empty() bool {
	return !st.slots[0].valid && !st.slots[1].valid && !st.slots[2].valid && !st.slots[3].valid
}

// cycle advances the machine one clock cycle. Stages are processed
// back to front so each instruction can advance into the slot freed by
// its elder in the same cycle.
func (c *CPU) cycle(st *pipeState) {
	c.stats.Cycles++
	st.killFetch = false
	c.doWB(st)
	if c.halted {
		c.flushValues() // exit syscall committed; younger work is abandoned
		return
	}
	c.doMEM(st)
	c.doEX(st)
	c.doID(st)
	c.doIF(st)
	if len(c.pendingVals) > 0 {
		c.flushValues()
	}
	if c.cfg.Trace != nil {
		c.traceCycle(c.cfg.Trace, st)
	}
	if st.halting && st.empty() {
		c.halted = true
	}
}

// emit sends one pipeline event, stamped with the current cycle. Call
// sites guard on c.cfg.Obs != nil so the disabled path costs one
// branch.
func (c *CPU) emit(k obs.EventKind, pc uint32, arg uint64, taken bool) {
	c.cfg.Obs.OnEvent(obs.Event{Cycle: c.stats.Cycles, Kind: k, PC: pc, Arg: arg, Taken: taken})
}

// doWB commits the instruction in WB: architectural register write,
// syscall side effects, and (in StageWB update mode) BDT delivery.
// Only executed instructions reach WB, so s.d is a decoded word.
func (c *CPU) doWB(st *pipeState) {
	s := &st.slots[st.wbi]
	if !s.valid {
		return
	}
	s.valid = false
	d := s.d
	if d.HasDest {
		c.regs[d.Dest] = s.result
		if c.cfg.Fold != nil && s.counted && !s.valueSent && c.cfg.BDTUpdate == StageWB {
			c.queueValue(d.Dest, s.result)
		}
	}
	switch d.In.Op {
	case isa.OpSYSCALL:
		c.stats.Syscalls++
		c.syscall(s.pc)
	case isa.OpBITSW:
		if c.cfg.Fold != nil {
			c.cfg.Fold.OnBankSwitch(int(d.In.Imm))
		}
	case isa.OpBREAK:
		c.fail(ErrBreak, s.pc, "break instruction")
	}
	c.stats.Instructions++
	if c.cfg.Obs != nil {
		c.emit(obs.EvCommit, s.pc, 0, false)
	}
	if c.cfg.Commits != nil {
		cm := Commit{
			PC:     s.pc,
			Cycle:  c.stats.Cycles,
			Op:     d.In.Op,
			Branch: d.CondBranch,
		}
		if d.HasDest {
			cm.HasDest, cm.Dest, cm.Value = true, d.Dest, s.result
		}
		if d.Store {
			cm.Store, cm.Addr, cm.StoreVal = true, s.memAddr, s.storeVal
		}
		c.cfg.Commits.OnCommit(cm)
	}
}

// syscall implements the tiny OS surface: exit, print-int, print-char.
func (c *CPU) syscall(pc uint32) {
	code := c.regs[isa.RegV0]
	arg := c.regs[isa.RegA0]
	switch code {
	case 1: // print integer
		c.Output = append(c.Output, arg)
	case 10: // exit
		c.exit = arg
		c.halted = true
	case 11: // print character
		c.OutputStr = append(c.OutputStr, byte(arg))
	default:
		c.fail(ErrBadSyscall, pc, "unknown syscall %d", code)
	}
}

// doMEM performs data-memory access. A D-cache miss holds the
// instruction in MEM for the extra cycles. doWB has always emptied WB
// by now, so a completing access advances unconditionally.
func (c *CPU) doMEM(st *pipeState) {
	s := &st.slots[st.mmi]
	if !s.valid {
		return
	}
	d := s.d
	if st.memBusy > 0 {
		st.memBusy--
		c.stats.MemStalls++
		if st.memBusy > 0 {
			return
		}
		// Fall through: access completes this cycle.
	} else if d.Load || d.Store {
		cycles := 1
		if c.dcache != nil {
			cycles = c.dcache.Access(s.memAddr, d.Store)
		}
		c.access(s)
		if c.err != nil {
			return
		}
		if cycles > 1 {
			st.memBusy = cycles - 1
			return
		}
	}
	// Leave MEM.
	if c.cfg.Fold != nil && d.HasDest && s.counted && !s.valueSent && c.cfg.BDTUpdate != StageWB {
		// StageMEM mode delivers everything here; StageEX mode
		// delivers loads here (their value exists only now).
		if c.cfg.BDTUpdate == StageMEM || d.Load {
			c.queueValue(d.Dest, s.result)
			s.valueSent = true
		}
	}
	st.wbi, st.mmi = st.mmi, st.wbi
}

// accessWidth returns the byte width of a load/store opcode.
func accessWidth(op isa.Op) uint32 {
	switch op {
	case isa.OpLW, isa.OpSW:
		return 4
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		return 2
	}
	return 1
}

// accessFault reports whether the memory operation in s would fault
// in access: beyond the memory limit or unaligned.
func (c *CPU) accessFault(s *slot) bool {
	a, width := s.memAddr, accessWidth(s.d.In.Op)
	return a >= c.cfg.MemLimit || c.cfg.MemLimit-a < width || a%width != 0
}

// access performs the functional memory operation for s, enforcing the
// alignment rules and the configured memory limit.
func (c *CPU) access(s *slot) {
	op := s.d.In.Op
	a := s.memAddr
	width := accessWidth(op)
	if a >= c.cfg.MemLimit || c.cfg.MemLimit-a < width {
		c.fail(ErrMemOutOfRange, s.pc, "%s at 0x%08x beyond memory limit 0x%08x", op, a, c.cfg.MemLimit)
		return
	}
	if a%width != 0 {
		c.fail(ErrUnalignedAccess, s.pc, "unaligned %s at 0x%08x", op, a)
		return
	}
	c.memOp(s)
}

// memOp performs the load or store in s, which access (or the fused
// loop, through accessFault) has validated.
func (c *CPU) memOp(s *slot) {
	a := s.memAddr
	switch s.d.In.Op {
	case isa.OpLW:
		s.result = int32(c.mem.LoadWord(a))
	case isa.OpLH:
		s.result = int32(int16(c.mem.LoadHalf(a)))
	case isa.OpLHU:
		s.result = int32(c.mem.LoadHalf(a))
	case isa.OpLB:
		s.result = int32(int8(c.mem.LoadByte(a)))
	case isa.OpLBU:
		s.result = int32(c.mem.LoadByte(a))
	case isa.OpSW:
		c.mem.StoreWord(a, uint32(s.storeVal))
	case isa.OpSH:
		c.mem.StoreHalf(a, uint16(s.storeVal))
	case isa.OpSB:
		c.mem.StoreByte(a, byte(s.storeVal))
	}
}

// loadUseHazard reports whether s, about to execute, needs the value
// of a load that has not yet produced it. WB is drained at the start
// of every cycle, so its occupant w during doEX completed MEM this very
// cycle; a load there delivers its data only at the cycle edge — the
// classic one-bubble load-use interlock.
func loadUseHazard(s, w *slot) bool {
	if !w.valid || !w.d.Load || !w.d.HasDest || s.d == nil {
		return false
	}
	return readsReg(s.d, w.d.Dest)
}

// doEX executes the instruction in EX, resolving branches and
// indirect jumps at the end of the stage.
func (c *CPU) doEX(st *pipeState) {
	s, mm := &st.slots[st.exi], &st.slots[st.mmi]
	if !s.valid || mm.valid {
		return // empty, or structural stall: MEM busy with a cache miss
	}
	if !s.started {
		w := &st.slots[st.wbi]
		if loadUseHazard(s, w) {
			c.stats.LoadUseStalls++
			return
		}
		if s.d == nil || !s.d.OK {
			if s.poison {
				c.fail(ErrTextOverrun, s.pc, "execution ran past the text segment")
			} else {
				c.fail(ErrBadOpcode, s.pc, "illegal instruction word 0x%08x", s.d.Word)
			}
			return
		}
		s.started = true
		s.exLeft = 1
		switch s.d.In.Op {
		case isa.OpMULT, isa.OpMULTU:
			s.exLeft = int32(c.cfg.MultCycles)
		case isa.OpDIV, isa.OpDIVU:
			s.exLeft = int32(c.cfg.DivCycles)
		}
		c.execute(s, w)
		if c.err != nil {
			return
		}
	}
	s.exLeft--
	if s.exLeft > 0 {
		c.stats.ExStalls++
		return
	}
	// End of EX: resolve control flow. A wrong-path fetch stream is
	// squashed (the ID slot and the in-flight fetch), costing the
	// paper's two-cycle penalty.
	d := s.d
	switch {
	case d.CondBranch:
		if next, mis := c.resolveCond(s); mis {
			c.squash(st, next)
			st.redirectHold = c.cfg.ExtraMispredictCycles
		}
	case d.In.Op == isa.OpJR || d.In.Op == isa.OpJALR:
		c.stats.Jumps++
		c.stats.IndirectJumps++
		c.squash(st, s.memAddr)
	}
	if c.cfg.Fold != nil && d.HasDest && s.counted && !s.valueSent &&
		c.cfg.BDTUpdate == StageEX && !d.Load {
		c.queueValue(d.Dest, s.result)
		s.valueSent = true
	}
	st.mmi, st.exi = st.exi, st.mmi
}

// resolveCond resolves the conditional branch executing in s:
// direction from the latched operands, outcome and prediction-detail
// stats, observer notification and predictor training — everything
// short of the squash, which doEX and the fused loop each apply in
// their own representation. It returns the branch's actual next fetch
// address and whether fetch followed the wrong path (mispredict ==
// true means Mispredicts has been counted and the caller must squash).
func (c *CPU) resolveCond(s *slot) (actualNext uint32, mispredict bool) {
	d := s.d
	rs, rt := s.result, s.storeVal
	var taken bool
	switch d.In.Op {
	case isa.OpBEQ:
		taken = rs == rt
	case isa.OpBNE:
		taken = rs != rt
	case isa.OpBLEZ:
		taken = rs <= 0
	case isa.OpBGTZ:
		taken = rs > 0
	case isa.OpBLTZ:
		taken = rs < 0
	case isa.OpBGEZ:
		taken = rs >= 0
	}
	target := d.BranchTarget
	c.stats.CondBranches++
	if taken {
		c.stats.TakenBranches++
	}
	if c.cfg.Observer != nil {
		c.cfg.Observer.OnBranch(s.pc, taken, false)
	}
	if c.cfg.Obs != nil {
		c.emit(obs.EvBranch, s.pc, 0, taken)
	}
	actualNext = s.pc + 4
	if taken {
		actualNext = target
	}
	predictedNext := s.pc + 4
	if s.predRedirect {
		predictedNext = s.predTarget
	}
	if s.predTaken != taken {
		c.stats.DirMispredicts++
	} else if taken && !s.predRedirect {
		c.stats.BTBMissTaken++
	} else if taken && s.predRedirect && s.predTarget != target {
		c.stats.BTBWrongTarget++
	}
	c.cfg.Branch.Resolve(s.pc, taken, target)
	if actualNext == predictedNext {
		return actualNext, false
	}
	c.stats.Mispredicts++
	if c.cfg.Obs != nil {
		c.emit(obs.EvMispredict, s.pc, uint64(actualNext), taken)
	}
	return actualNext, true
}

// squash kills the wrong-path front end: the instruction in decode and
// any in-flight or upcoming fetch this cycle, then redirects fetch to
// next.
func (c *CPU) squash(st *pipeState, next uint32) {
	if id := &st.slots[st.idi]; id.valid {
		c.stats.WrongPath++
		id.valid = false
	}
	st.fetching = false
	st.fetchBusy = 0
	st.killFetch = true
	st.redirectHold = 0
	st.pc = next
	// A redirect revives fetch even if the halt address was reached.
	st.halting = next == HaltAddress
}

// doID moves the decoded instruction into EX, fires OnIssue, and
// redirects fetch for direct jumps (one-cycle penalty).
func (c *CPU) doID(st *pipeState) {
	if !st.slots[st.idi].valid || st.slots[st.exi].valid {
		return // empty, or EX occupied (stall)
	}
	st.exi, st.idi = st.idi, st.exi
	s := &st.slots[st.exi]
	d := s.d
	if d == nil || !d.OK {
		return
	}
	if d.HasDest {
		if c.cfg.Fold != nil {
			c.cfg.Fold.OnIssue(d.Dest)
			s.counted = true
		}
		if c.cfg.Obs != nil {
			c.emit(obs.EvIssue, s.pc, uint64(d.Dest), false)
		}
	}
	switch d.In.Op {
	case isa.OpJ, isa.OpJAL:
		c.stats.Jumps++
		// Redirect after this cycle's (wrong-path) fetch slot.
		st.pc = d.In.Target
		st.killFetch = true
		st.fetching = false
		st.fetchBusy = 0
		st.halting = d.In.Target == HaltAddress
	}
}

// doIF fetches one instruction. I-cache misses hold the fetch for the
// miss latency. A completing fetch consults the ASBR unit first
// (the BIT lookup happens in the fetch stage, paper Figure 4); on a
// miss the word's decoded form is taken from the predecode table (or,
// on the reference engine, decoded afresh) and conditional branches
// are predicted.
func (c *CPU) doIF(st *pipeState) {
	var pc uint32
	switch {
	case st.killFetch:
		// This cycle's fetch slot belongs to a squashed path.
		return
	case st.redirectHold > 0:
		st.redirectHold--
		c.stats.FetchStalls++
		return
	case st.slots[st.idi].valid, st.halting:
		return // decode occupied (stall), or draining
	case st.fetching:
		if st.fetchBusy > 0 {
			st.fetchBusy--
			c.stats.FetchStalls++
			if st.fetchBusy > 0 {
				return
			}
		}
		st.fetching = false
		pc = st.fetchPC
	default:
		pc = st.pc
		if pc == HaltAddress {
			st.halting = true
			return
		}
		if !c.prog.InText(pc) {
			// Possibly a wrong-path overrun (e.g. sequential fetch past a
			// jr at the end of the text segment). Deliver a poison slot:
			// it only faults if it survives to execute.
			st.slots[st.idi] = slot{pc: pc, poison: true, valid: true}
			st.pc = pc + 4
			return
		}
		if c.icache != nil {
			cycles := c.cfg.ICache.HitCycles
			if c.pre != nil && st.lineKnown && pc&st.lineMask == st.lastLine {
				c.icache.AccountHits(1)
			} else {
				cycles = c.icache.Access(pc, false)
				st.lastLine = pc & st.lineMask
				st.lineKnown = true
			}
			if cycles > 1 {
				st.fetching = true
				st.fetchPC = pc
				st.fetchBusy = cycles - 1
				return
			}
		}
	}

	// Deliver the fetch of pc (a text address) into ID.
	c.stats.Fetches++
	if c.cfg.Obs != nil {
		c.emit(obs.EvFetch, pc, 0, false)
	}
	id := &st.slots[st.idi]
	if c.cfg.Fold != nil {
		if f, ok := c.cfg.Fold.TryFold(pc); ok {
			c.stats.Folded++
			if f.Taken {
				c.stats.FoldedTaken++
			}
			if c.cfg.Observer != nil {
				c.cfg.Observer.OnBranch(pc, f.Taken, true)
			}
			if c.cfg.Obs != nil {
				c.emit(obs.EvFold, pc, uint64(f.Next), f.Taken)
			}
			*id = slot{d: c.injected(f), pc: f.PC, folded: true, valid: true}
			st.pc = f.Next
			if f.Next == HaltAddress {
				st.halting = true
			}
			return
		}
	}
	var d *DecodedInst
	if c.pre != nil && pc%4 == 0 {
		d = c.pre.at(pc)
	} else {
		// Reference engine: decode the word on every fetch. Every
		// engine comes here for an unaligned pc, which WordAt faults.
		word, err := c.prog.WordAt(pc)
		if err != nil {
			c.fail(ErrFetchFault, pc, "fetch: %v", err)
			return
		}
		d = new(DecodedInst)
		decodeWord(d, word, pc)
	}
	*id = slot{d: d, pc: pc, valid: true}
	next := pc + 4
	if d.CondBranch {
		taken, target, redirect := c.cfg.Branch.PredictFetch(pc)
		id.predTaken, id.predTarget = taken, target
		id.predRedirect = redirect
		if redirect {
			next = target
		}
	}
	st.pc = next
	if next == HaltAddress {
		st.halting = true
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
