package cpu

import "asbr/internal/core"

// The superblock engine's accelerators. The superblock engine runs the
// same per-cycle stages as the fast engine (stages.go); before each
// cycle RunContext offers a fused loop the chance to batch-advance
// instead: sbFold when the machine has an ASBR unit, sbFused otherwise.
// That is legal only because SelectEngine guarantees no capability is
// attached (no commit observer, no event sink, no tracer), so the hooks
// the fused loops skip are provably absent, and the architectural
// state and Stats they leave behind are bit-identical to what the
// per-cycle stages would leave. The branch observer is the one hook
// they call, through resolveCond and at a fold.

// sbFold is sbFused (below) for a machine with an ASBR unit: the same
// cycles, plus the unit's work at the points the per-cycle stages do
// it. The
// loop drives the unit's BDT by index (core.BDT.Issue and Deliver;
// predecode gives each word its index, DecodedInst.bdt), so no stage
// tests whether a slot writes a register: a word that writes none, the
// zero register and a bubble all use the sink.
//
//	issue    as the ID slot advances to EX — never for a slot held by
//	         an EX hold; a slot squashed this cycle is a bubble
//	deliver  at the configured update point (WB, MEM, or EX for ALU
//	         results and MEM for loads): the value leaving WB or MEM,
//	         then the one leaving EX, after IF in stage order, as
//	         cycle's flushValues does
//	TryFold  on every delivered fetch whose slot is set in the active
//	         bank's screen (core.Engine.Screen), or on every delivered
//	         fetch under a mutation policy; the fetches screened out
//	         are added to the unit's Lookups at exit. A fold counts
//	         Folded and FoldedTaken, tells the branch observer, injects
//	         the BIT's word (never predicted) and continues fetch at
//	         Fold.Next
//
// The slots' counted and valueSent flags are set where the stages set
// them, so the stages resume any slot exactly. The loop emits no
// events: a unit with an event sink demands Caps.Events, and the loop
// declines one attached after cpu.New.
//
// A fold may inject a word the loop does not play: one of class
// fcBreak, or one outside the text or unlike the text's own word at
// that address, which the stages decode afresh (fclass fcBreak too).
// The fold's cycle is still exact, so the loop finishes it and exits
// at the cycle boundary with that word in ID, before it advances; a
// fold that continues at HaltAddress exits at the top of the next
// cycle like any halt redirect.
//
// It is a separate function because folding work inside sbFused slows
// hookless runs measurably even when skipped (DESIGN.md §14). The
// order of this file's functions is chosen for placement: in it the
// linker puts both loops on 64-byte boundaries (make placement).
func (c *CPU) sbFold(st *pipeState, end uint64, eng *core.Engine) bool {
	if _, traced := eng.Sink(); traced || !c.sbEnterable(st) {
		return false
	}
	budget := int(end - c.stats.Cycles)
	s0, s1, s2, s3 := st.slots[st.wbi], st.slots[st.mmi], st.slots[st.exi], st.slots[st.idi]
	for _, s := range [...]*slot{&s0, &s1, &s2, &s3} {
		s.cls, s.bdt = fcBreak, core.BDTSink
		if s.valid {
			s.cls, s.bdt = s.d.fclass, s.d.bdt
		}
	}
	s2.exHold = s2.valid && s2.started || s1.cls == fcLoad && s2.valid && loadFeeds(s1.d, s2.d)
	s3.exHold = s2.cls == fcLoad && s3.valid && loadFeeds(s2.d, s3.d)
	if (s2.exHold || s2.cls == fcMult) && !s3.valid {
		return false // see sbFused
	}
	wbVal, mmVal, q0, q1 := &s0, &s1, &s2, &s3
	fpc := st.pc
	hold := st.redirectHold

	pre := c.pre
	up := c.cfg.BDTUpdate
	mult := int32(c.cfg.MultCycles)
	bdt := eng.BDTState()
	scr := eng.Screen() // no bank switch can commit inside the loop
	lineMask := st.lineMask
	lastLine := st.lastLine
	pendingHits := 0
	done := 0
	fetches := 0
	screened := 0
	commits := 0
	for done < budget {
		// ---- top of cycle ----
		fd := pre.lookup(fpc)
		if fpc == HaltAddress || fd == nil || fd.fclass == fcBreak {
			break
		}
		if c.icache != nil && fpc&lineMask != lastLine && !c.icache.Contains(fpc) {
			break
		}
		memOp := mmVal.cls == fcLoad || mmVal.cls == fcStore
		if memOp {
			if c.accessFault(mmVal) {
				break
			}
			if c.dcache != nil && !c.dcache.TryAccess(mmVal.memAddr, mmVal.cls == fcStore) {
				break
			}
		}
		done++
		// The values this cycle delivers after IF: one leaving WB or MEM
		// (r1), then one leaving EX (r2). An index left at the sink
		// delivers nowhere.
		r1, v1 := core.BDTSink, int32(0)
		r2, v2 := core.BDTSink, int32(0)
		// ---- WB ----
		if wbVal.valid {
			if d := wbVal.d; d.HasDest {
				c.regs[d.Dest] = wbVal.result
			}
			commits++
		}
		// ---- MEM ----
		if memOp {
			c.memOp(mmVal)
		}
		switch up {
		case StageWB:
			r1, v1 = wbVal.bdt, wbVal.result
		case StageMEM:
			r1, v1 = mmVal.bdt, mmVal.result
			mmVal.valueSent = true
		case StageEX:
			if mmVal.cls == fcLoad {
				r1, v1 = mmVal.bdt, mmVal.result
				mmVal.valueSent = true
			}
		}
		// ---- EX ----
		kill := false
		if q0.valid {
			if !q0.exHold {
				q0.started = true
				c.execute(q0, mmVal)
				switch q0.cls {
				case fcBranch:
					if next, mis := c.resolveCond(q0); mis {
						c.sbSquash(q1)
						fpc, kill = next, true
						hold = c.cfg.ExtraMispredictCycles
					}
				case fcJumpReg:
					c.stats.Jumps++
					c.stats.IndirectJumps++
					c.sbSquash(q1)
					fpc, kill = q0.memAddr, true
					hold = 0
				case fcMult:
					if q0.exLeft = mult; c.sbMultCycle(q0) {
						ns := wbVal
						*ns = slot{}
						wbVal, mmVal = mmVal, ns
						bdt.Deliver(r1, v1)
						continue
					}
				}
			} else if !q0.started || c.sbMultCycle(q0) {
				// EX holds (see sbFused).
				if !q0.started {
					q0.exHold = false
					c.stats.LoadUseStalls++
				}
				ns := wbVal
				*ns = slot{}
				wbVal, mmVal = mmVal, ns
				bdt.Deliver(r1, v1)
				continue
			}
			if up == StageEX && q0.cls != fcLoad {
				r2, v2 = q0.bdt, q0.result
				q0.valueSent = true
			}
		}
		// ---- ID ----
		bdt.Issue(q1.bdt)
		q1.counted = true
		if !kill && q1.cls == fcJump {
			c.stats.Jumps++
			fpc, kill = q1.d.In.Target, true
		}
		// ---- IF ----
		ns := wbVal
		stop := false // a fold injected a word the loop does not play
		switch {
		case kill:
			*ns = slot{}
		case hold > 0:
			hold--
			c.stats.FetchStalls++
			*ns = slot{}
		default:
			if c.icache != nil {
				if fpc&lineMask != lastLine {
					if pendingHits > 0 {
						c.icache.AccountHits(pendingHits)
						pendingHits = 0
					}
					c.icache.Access(fpc, false)
					lastLine = fpc & lineMask
				} else {
					pendingHits++
				}
			}
			fetches++
			if scr != nil && !scr.Has(fpc) {
				screened++
			} else if f, ok := eng.TryFold(fpc); ok {
				c.stats.Folded++
				if f.Taken {
					c.stats.FoldedTaken++
				}
				if c.cfg.Observer != nil {
					c.cfg.Observer.OnBranch(fpc, f.Taken, true)
				}
				inj := c.injected(f)
				*ns = slot{d: inj, pc: f.PC, valid: true, folded: true, cls: inj.fclass}
				ns.bdt = inj.bdt
				ns.exHold = q1.cls == fcLoad && loadFeeds(q1.d, inj)
				fpc = f.Next
				stop = ns.cls == fcBreak
				break
			}
			// bdt is stored apart: as a second field of the literal it
			// makes the compiler build the slot in a temporary and copy it,
			// and the copy's wide loads stall on the narrow stores.
			*ns = slot{d: fd, pc: fpc, valid: true, cls: fd.fclass}
			ns.bdt = fd.bdt
			ns.exHold = q1.cls == fcLoad && loadFeeds(q1.d, fd)
			next := fpc + 4
			if ns.cls == fcBranch {
				tkn, tgt, rd := c.cfg.Branch.PredictFetch(fpc)
				ns.predTaken, ns.predTarget = tkn, tgt
				ns.predRedirect = rd
				if rd {
					next = tgt
				}
			}
			fpc = next
		}
		bdt.Deliver(r1, v1)
		if up == StageEX {
			bdt.Deliver(r2, v2)
		}
		wbVal, mmVal, q0, q1 = mmVal, q0, q1, ns
		if stop {
			break
		}
	}
	if done == 0 {
		return false
	}
	if pendingHits > 0 {
		c.icache.AccountHits(pendingHits)
	}
	eng.Screened(uint64(screened))
	st.lastLine = lastLine
	c.stats.Cycles += uint64(done)
	c.stats.Instructions += uint64(commits)
	c.stats.Fetches += uint64(fetches)
	st.slots[st.wbi] = *wbVal
	st.slots[st.mmi] = *mmVal
	st.slots[st.exi] = *q0
	st.slots[st.idi] = *q1
	st.pc = fpc
	st.redirectHold = hold
	return true
}

// sbFused batch-advances the machine through whole cycles of the
// hookless pipeline. It returns false (having consumed no cycles) when
// the first cycle holds an event it does not model; otherwise it plays
// at least one whole cycle and returns true.
//
// A fused cycle is one turn of the real pipeline restricted to the
// events the loop models exactly: any word but an fcBreak in any stage
// (single-cycle work, mult occupancy, conditional branches and jumps —
// see fusedClass), bubbles, one-cycle cache hits, branch prediction and
// resolution with the mispredict squash and redirect hold, the jump
// redirects, and the EX holds. Per cycle, in the per-cycle stage order:
//
//	WB   commit the oldest in-flight result
//	MEM  functional memory op (its D-cache hit was taken at the top of
//	     the cycle; nothing else in a cycle touches the D-cache)
//	EX   execute, forwarding from the slot that just finished MEM;
//	     conditional branches resolve here, training the predictor
//	     exactly as the per-cycle loop would — a mispredict squashes
//	     ID, kills this cycle's fetch and starts the redirect hold —
//	     and jr/jalr squash the same way. EX holds for the one-cycle
//	     load-use interlock and for a mult's MultCycles: WB and MEM
//	     drain, ID and IF hold
//	ID   a direct jump leaving ID redirects fetch, killing this cycle's
//	     fetch
//	IF   fetch one word along the predicted path (PredictFetch at the
//	     exact virtual cycle), touching the I-cache once per line
//	     instead of once per word (mem.Cache.AccountHits batches the
//	     guaranteed same-line hits)
//
// Every event the loop does not model — a div, an I- or D-cache miss, a
// memory fault, a syscall, break or bank switch, an undecodable word,
// the halt address or a text overrun — is detected at the top of its
// cycle, before anything in the cycle happens. So every exit is a clean
// cycle boundary: the four stack slots map back onto the pipeline one
// to one and the per-cycle stages replay the cycle. The fetch-side
// checks are conservative (the fetch they vet may still be killed or
// held), which costs an early exit, never a divergence.
func (c *CPU) sbFused(st *pipeState, end uint64) bool {
	if !c.sbEnterable(st) {
		return false
	}
	budget := int(end - c.stats.Cycles)

	// Four stack slots carry the virtual pipeline; a stage advance
	// rotates the four pointers (the slot freed by this cycle's commit
	// becomes the fetch target), so no slot struct is copied mid-run.
	// exHold is recomputed for the two fresh slots the way the fused
	// fetch sets it: the slot directly ahead is a load feeding them. A
	// started mult in EX keeps holding it.
	s0, s1, s2, s3 := st.slots[st.wbi], st.slots[st.mmi], st.slots[st.exi], st.slots[st.idi]
	for _, s := range [...]*slot{&s0, &s1, &s2, &s3} {
		s.cls = fcBreak
		if s.valid {
			s.cls = s.d.fclass
		}
	}
	s2.exHold = s2.valid && s2.started || s1.cls == fcLoad && s2.valid && loadFeeds(s1.d, s2.d)
	s3.exHold = s2.cls == fcLoad && s3.valid && loadFeeds(s2.d, s3.d)
	if (s2.exHold || s2.cls == fcMult) && !s3.valid {
		// A hold in EX assumes a full ID, which holds instead of
		// fetching (an empty one would fetch). No path is known to reach
		// this state; the check keeps that assumption local instead of
		// relying on it.
		return false
	}
	wbVal, mmVal, q0, q1 := &s0, &s1, &s2, &s3
	fpc := st.pc // the word IF fetches this cycle
	hold := st.redirectHold

	pre := c.pre
	mult := int32(c.cfg.MultCycles)
	lineMask := st.lineMask
	lastLine := st.lastLine
	pendingHits := 0
	done := 0
	fetches := 0
	commits := 0
	for done < budget {
		// ---- top of cycle: leave before anything of this cycle
		// happens if it holds an event the loop does not model.
		fd := pre.lookup(fpc)
		if fpc == HaltAddress || fd == nil || fd.fclass == fcBreak {
			break
		}
		if c.icache != nil && fpc&lineMask != lastLine && !c.icache.Contains(fpc) {
			break
		}
		memOp := mmVal.cls == fcLoad || mmVal.cls == fcStore
		if memOp {
			if c.accessFault(mmVal) {
				break
			}
			if c.dcache != nil && !c.dcache.TryAccess(mmVal.memAddr, mmVal.cls == fcStore) {
				break
			}
		}
		done++
		// ---- WB: commit ----
		if wbVal.valid {
			if wbVal.d.HasDest {
				c.regs[wbVal.d.Dest] = wbVal.result
			}
			commits++
		}
		// ---- MEM: functional memory op ----
		if memOp {
			c.memOp(mmVal) // validated at the top
		}
		// ---- EX ----
		kill := false // this cycle's fetch is killed by a redirect
		if q0.valid {
			if !q0.exHold {
				q0.started = true
				c.execute(q0, mmVal)
				switch q0.cls {
				case fcBranch:
					if next, mis := c.resolveCond(q0); mis {
						c.sbSquash(q1)
						fpc, kill = next, true
						hold = c.cfg.ExtraMispredictCycles
					}
				case fcJumpReg:
					c.stats.Jumps++
					c.stats.IndirectJumps++
					c.sbSquash(q1)
					fpc, kill = q0.memAddr, true
					hold = 0
				case fcMult:
					if q0.exLeft = mult; c.sbMultCycle(q0) {
						ns := wbVal // EX holds, as below
						*ns = slot{}
						wbVal, mmVal = mmVal, ns
						continue
					}
				}
			} else if !q0.started || c.sbMultCycle(q0) {
				// EX holds: the load-use interlock (the slot executes next
				// cycle, while the load ahead finishes MEM) or a mult's
				// occupancy. ID and IF stall behind it (no redirect hold is
				// pending: a hold leaves EX empty until fetch resumes), so
				// the only stage advances are WB and MEM — the freed commit
				// slot becomes a bubble that drains through MEM and WB.
				if !q0.started {
					q0.exHold = false
					c.stats.LoadUseStalls++
				}
				ns := wbVal
				*ns = slot{}
				wbVal, mmVal = mmVal, ns
				continue
			}
			// Else a mult's last EX cycle: it leaves EX.
		}
		// ---- ID: a direct jump moving to EX redirects fetch ----
		if !kill && q1.cls == fcJump {
			c.stats.Jumps++
			fpc, kill = q1.d.In.Target, true
		}
		// ---- IF ----
		ns := wbVal // the committed slot is dead: it becomes the fetch
		switch {
		case kill:
			*ns = slot{}
		case hold > 0:
			hold--
			c.stats.FetchStalls++
			*ns = slot{}
		default:
			if c.icache != nil {
				if fpc&lineMask != lastLine {
					if pendingHits > 0 {
						c.icache.AccountHits(pendingHits)
						pendingHits = 0
					}
					c.icache.Access(fpc, false) // a hit, vetted at the top
					lastLine = fpc & lineMask
				} else {
					pendingHits++
				}
			}
			fetches++
			*ns = slot{d: fd, pc: fpc, valid: true, cls: fd.fclass}
			ns.exHold = q1.cls == fcLoad && loadFeeds(q1.d, fd)
			next := fpc + 4
			if ns.cls == fcBranch {
				tkn, tgt, rd := c.cfg.Branch.PredictFetch(fpc)
				ns.predTaken, ns.predTarget = tkn, tgt
				ns.predRedirect = rd
				if rd {
					next = tgt
				}
			}
			fpc = next
		}
		wbVal, mmVal, q0, q1 = mmVal, q0, q1, ns
	}
	if done == 0 {
		return false
	}
	if pendingHits > 0 {
		c.icache.AccountHits(pendingHits)
	}
	st.lastLine = lastLine
	c.stats.Cycles += uint64(done)
	c.stats.Instructions += uint64(commits)
	c.stats.Fetches += uint64(fetches)

	// Rebuild: every exit is on a cycle boundary, so the virtual
	// pipeline maps back one to one and the per-cycle stages resume
	// with no seam. A halt-address redirect leaves halting for the
	// per-cycle fetch to raise, which it does before fetching anything.
	st.slots[st.wbi] = *wbVal
	st.slots[st.mmi] = *mmVal
	st.slots[st.exi] = *q0
	st.slots[st.idi] = *q1
	st.pc = fpc
	st.redirectHold = hold
	return true
}

// injected returns the decoded form of a fold's replacement word, for
// doIF and sbFold.
func (c *CPU) injected(f core.Fold) *DecodedInst {
	if c.pre != nil && f.PC%4 == 0 && c.prog.InText(f.PC) {
		if d := c.pre.at(f.PC); d.Word == f.Word {
			// The injected word is the program's own instruction at f.PC
			// (the common case): reuse its predecoded entry.
			return d
		}
	}
	// The reference engine, or a BIT entry (a stale or corrupted one)
	// that injected a word not in the text image or at an unaligned
	// pc: decode it directly.
	d := new(DecodedInst)
	decodeWord(d, f.Word, f.PC)
	return d
}

// sbEnterable reports whether a fused loop may start from the
// pipeline: no fetch or data miss outstanding, no halt draining,
// one-cycle cache hits, and no stage holding a word the loops do not
// play. A started slot in EX is a mult still occupying it; any other
// slot in EX is fresh. The loops copy the slots themselves: doing that
// here, through a pointer to their array, cost the plain loop about 5%
// on the ADPCM benchmarks, which enter it every few hundred cycles.
func (c *CPU) sbEnterable(st *pipeState) bool {
	if st.fetching || st.memBusy != 0 || st.halting ||
		c.cfg.ICache.HitCycles > 1 || c.cfg.DCache.HitCycles > 1 {
		// The loops play cache hits as stall-free; slower hits stay
		// with the stages.
		return false
	}
	wb, mm := &st.slots[st.wbi], &st.slots[st.mmi]
	ex, id := &st.slots[st.exi], &st.slots[st.idi]
	// Valid WB and MEM occupants have executed, so their d is set; EX
	// and ID may hold a poison (out-of-text) fetch.
	return !(wb.valid && wb.d.fclass == fcBreak || mm.valid && mm.d.fclass == fcBreak ||
		ex.valid && (ex.d == nil || ex.d.fclass == fcBreak || ex.started && ex.d.fclass != fcMult) ||
		id.valid && (id.d == nil || id.d.fclass == fcBreak))
}

// sbMultCycle plays one cycle of the mult occupying EX in s, counting
// exLeft down as doEX does. It reports whether EX holds the mult
// through this cycle, which costs one ExStalls; on its last cycle the
// mult leaves EX.
func (c *CPU) sbMultCycle(s *slot) bool {
	s.exLeft--
	s.exHold = s.exLeft > 0
	if s.exHold {
		c.stats.ExStalls++
	}
	return s.exHold
}

// sbSquash is squash in fused representation: the wrong-path word in
// ID dies. The caller redirects fetch and kills this cycle's fetch.
func (c *CPU) sbSquash(id *slot) {
	if id.valid {
		c.stats.WrongPath++
		*id = slot{}
	}
}

// loadFeeds reports whether ld is a load whose destination next reads:
// the pair that costs the one-cycle load-use interlock when next
// directly follows ld.
func loadFeeds(ld, next *DecodedInst) bool {
	return ld.Load && ld.HasDest && readsReg(next, ld.Dest)
}
