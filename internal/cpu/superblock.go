package cpu

import "asbr/internal/core"

// The superblock engine's accelerators. The superblock engine runs the
// same per-cycle stages as the fast engine (stages.go); before each
// cycle RunContext offers a fused loop the chance to batch-advance
// instead: sbFold when the machine has an ASBR unit, sbFused otherwise.
// That is legal only because SelectEngine guarantees no capability is
// attached (no commit observer, no event sink, no tracer, no RAS, no
// recording), so the hooks the fused loops skip are provably absent,
// and the architectural state and Stats they leave behind are
// bit-identical to what the per-cycle stages would leave. The branch
// observer is the one hook they call, through resolveCond and at a
// fold.

// sbFused batch-advances the machine through whole cycles of the
// hookless pipeline. It returns false (having consumed no cycles) when
// the first cycle holds an event it does not model; otherwise it plays
// at least one whole cycle and returns true.
//
// A fused cycle is one turn of the real pipeline restricted to the
// events the loop models exactly: any word but an fcBreak in any stage
// (single-cycle work, conditional branches and jumps — see
// fusedClass), bubbles, one-cycle cache hits, branch prediction and
// resolution with the mispredict squash and redirect hold, the jump
// redirects, and the one-cycle load-use interlock. Per cycle, in the
// per-cycle stage order:
//
//	WB   commit the oldest in-flight result
//	MEM  functional memory op (its D-cache hit was taken at the top of
//	     the cycle; nothing else in a cycle touches the D-cache)
//	EX   execute, forwarding from the slot that just finished MEM;
//	     conditional branches resolve here, training the predictor
//	     exactly as the per-cycle loop would — a mispredict squashes
//	     ID, kills this cycle's fetch and starts the redirect hold —
//	     and jr/jalr squash the same way (no RAS on this engine)
//	ID   a direct jump leaving ID redirects fetch, killing this cycle's
//	     fetch
//	IF   fetch one word along the predicted path (PredictFetch at the
//	     exact virtual cycle), touching the I-cache once per line
//	     instead of once per word (mem.Cache.AccountHits batches the
//	     guaranteed same-line hits)
//
// Every event the loop does not model — a multi-cycle EX, an I- or
// D-cache miss, a memory fault, a syscall, break or bank switch, an
// undecodable word, the halt address or a text overrun — is detected at
// the top of its cycle, before anything in the cycle happens. So every
// exit is a clean cycle boundary: the four stack slots map back onto the
// pipeline one to one and the per-cycle stages replay the cycle. The
// fetch-side checks are conservative (the fetch they vet may still be
// killed or held), which costs an early exit, never a divergence.
func (c *CPU) sbFused(st *pipeState, end uint64) bool {
	if st.fetching || st.memBusy != 0 || st.halting ||
		c.cfg.ICache.HitCycles > 1 || c.cfg.DCache.HitCycles > 1 {
		// The loop plays cache hits as stall-free; slower hits stay
		// with the stages.
		return false
	}
	wb, mm := &st.slots[st.wbi], &st.slots[st.mmi]
	ex, id := &st.slots[st.exi], &st.slots[st.idi]
	if wb.valid && wb.d.fclass == fcBreak || mm.valid && mm.d.fclass == fcBreak ||
		ex.valid && (ex.d == nil || ex.d.fclass == fcBreak || ex.started) ||
		id.valid && (id.d == nil || id.d.fclass == fcBreak) {
		// Valid WB and MEM occupants have executed, so their d is set;
		// EX and ID may hold a poison (out-of-text) fetch.
		return false
	}
	budget := int(end - c.stats.Cycles)

	// Four stack slots carry the virtual pipeline; a stage advance
	// rotates the four pointers (the slot freed by this cycle's commit
	// becomes the fetch target), so no slot struct is copied mid-run.
	// luHazard is recomputed for the two fresh slots the way the fused
	// fetch sets it: the slot directly ahead is a load feeding them.
	var s0, s1, s2, s3 slot
	s0 = *wb // in WB: MEM complete, result final, commits this cycle
	s1 = *mm // in MEM: executed, data access pending this cycle
	s2 = *ex // in EX: fresh, executes this cycle
	s3 = *id // in ID: fresh (prediction latched if a branch)
	for _, s := range [...]*slot{&s0, &s1, &s2, &s3} {
		s.cls = fcBreak
		if s.valid {
			s.cls = s.d.fclass
		}
	}
	s2.luHazard = s1.cls == fcLoad && s2.valid && loadFeeds(s1.d, s2.d)
	s3.luHazard = s2.cls == fcLoad && s3.valid && loadFeeds(s2.d, s3.d)
	if s2.luHazard && !s3.valid {
		// The interlock cycle below assumes a full ID, which holds
		// instead of fetching (an empty one would fetch). No path is
		// known to reach this state; the check keeps that assumption
		// local instead of relying on it.
		return false
	}
	wbVal, mmVal, q0, q1 := &s0, &s1, &s2, &s3
	fpc := st.pc // the word IF fetches this cycle
	hold := st.redirectHold

	pre := c.pre
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
			if q0.luHazard {
				// The load-use interlock: EX holds for one cycle while the
				// load ahead finishes MEM. ID and IF stall behind it (no
				// redirect hold is pending: a hold leaves EX empty until
				// fetch resumes), so the only stage advances are WB and
				// MEM — the freed commit slot becomes a bubble that drains
				// through MEM and WB.
				q0.luHazard = false
				c.stats.LoadUseStalls++
				ns := wbVal
				*ns = slot{}
				wbVal, mmVal = mmVal, ns
				continue
			}
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
			}
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
			ns.luHazard = q1.cls == fcLoad && loadFeeds(q1.d, fd)
			next := fpc + 4
			if ns.cls == fcBranch {
				tkn, tgt, rd := c.cfg.Branch.PredictFetch(fpc)
				ns.predTaken, ns.predTarget = tkn, tgt
				ns.predRedirect, ns.predicted = rd, true
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
	*wb = *wbVal
	*mm = *mmVal
	*ex = *q0
	*id = *q1
	st.pc = fpc
	st.redirectHold = hold
	return true
}

// sbFold is sbFused for a machine with an ASBR unit: the same cycles,
// plus the unit's work at the points the per-cycle stages do it.
//
//	OnIssue  as the ID slot advances to EX — never for a slot squashed
//	         this cycle or held by the load-use interlock
//	OnValue  at the configured update point (WB, MEM, or EX for ALU
//	         results and MEM for loads), queued and delivered after IF
//	         in stage order, as cycle's flushValues does
//	TryFold  on every delivered fetch; a fold counts Folded and
//	         FoldedTaken, tells the branch observer, injects the BIT's
//	         word (never predicted) and continues fetch at Fold.Next
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
// hookless runs measurably even when skipped (DESIGN.md §14).
func (c *CPU) sbFold(st *pipeState, end uint64, eng *core.Engine) bool {
	if st.fetching || st.memBusy != 0 || st.halting ||
		c.cfg.ICache.HitCycles > 1 || c.cfg.DCache.HitCycles > 1 {
		return false
	}
	wb, mm := &st.slots[st.wbi], &st.slots[st.mmi]
	ex, id := &st.slots[st.exi], &st.slots[st.idi]
	if wb.valid && wb.d.fclass == fcBreak || mm.valid && mm.d.fclass == fcBreak ||
		ex.valid && (ex.d == nil || ex.d.fclass == fcBreak || ex.started) ||
		id.valid && (id.d == nil || id.d.fclass == fcBreak) {
		return false
	}
	budget := int(end - c.stats.Cycles)

	var s0, s1, s2, s3 slot
	s0, s1, s2, s3 = *wb, *mm, *ex, *id
	for _, s := range [...]*slot{&s0, &s1, &s2, &s3} {
		s.cls = fcBreak
		if s.valid {
			s.cls = s.d.fclass
		}
	}
	s2.luHazard = s1.cls == fcLoad && s2.valid && loadFeeds(s1.d, s2.d)
	s3.luHazard = s2.cls == fcLoad && s3.valid && loadFeeds(s2.d, s3.d)
	if s2.luHazard && !s3.valid {
		return false // see sbFused
	}
	wbVal, mmVal, q0, q1 := &s0, &s1, &s2, &s3
	fpc := st.pc
	hold := st.redirectHold

	pre := c.pre
	up := c.cfg.BDTUpdate
	lineMask := st.lineMask
	lastLine := st.lastLine
	pendingHits := 0
	done := 0
	fetches := 0
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
		// Values produced this cycle, delivered after IF in stage order:
		// at most one leaving WB or MEM and one leaving EX.
		var vals [2]pendingVal
		nv := 0
		// ---- WB ----
		if wbVal.valid {
			if d := wbVal.d; d.HasDest {
				c.regs[d.Dest] = wbVal.result
				if up == StageWB && wbVal.counted && !wbVal.valueSent {
					vals[nv] = pendingVal{d.Dest, wbVal.result}
					nv++
				}
			}
			commits++
		}
		// ---- MEM ----
		if memOp {
			c.memOp(mmVal)
		}
		if d := mmVal.d; mmVal.valid && d.HasDest && mmVal.counted && !mmVal.valueSent &&
			(up == StageMEM || up == StageEX && d.Load) {
			vals[nv] = pendingVal{d.Dest, mmVal.result}
			nv++
			mmVal.valueSent = true
		}
		// ---- EX ----
		kill := false
		if q0.valid {
			if q0.luHazard {
				q0.luHazard = false
				c.stats.LoadUseStalls++
				ns := wbVal
				*ns = slot{}
				wbVal, mmVal = mmVal, ns
				for _, v := range vals[:nv] {
					eng.OnValue(v.reg, v.val)
				}
				continue
			}
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
			}
			if d := q0.d; up == StageEX && d.HasDest && q0.counted && !q0.valueSent && !d.Load {
				vals[nv] = pendingVal{d.Dest, q0.result}
				nv++
				q0.valueSent = true
			}
		}
		// ---- ID ----
		if q1.valid && q1.d.HasDest {
			eng.OnIssue(q1.d.Dest)
			q1.counted = true
		}
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
			if f, ok := eng.TryFold(fpc); ok {
				c.stats.Folded++
				if f.Taken {
					c.stats.FoldedTaken++
				}
				if c.cfg.Observer != nil {
					c.cfg.Observer.OnBranch(fpc, f.Taken, true)
				}
				inj := c.injected(f)
				*ns = slot{d: inj, pc: f.PC, valid: true, folded: true, cls: inj.fclass}
				ns.luHazard = q1.cls == fcLoad && loadFeeds(q1.d, inj)
				fpc = f.Next
				stop = ns.cls == fcBreak
				break
			}
			*ns = slot{d: fd, pc: fpc, valid: true, cls: fd.fclass}
			ns.luHazard = q1.cls == fcLoad && loadFeeds(q1.d, fd)
			next := fpc + 4
			if ns.cls == fcBranch {
				tkn, tgt, rd := c.cfg.Branch.PredictFetch(fpc)
				ns.predTaken, ns.predTarget = tkn, tgt
				ns.predRedirect, ns.predicted = rd, true
				if rd {
					next = tgt
				}
			}
			fpc = next
		}
		for _, v := range vals[:nv] {
			eng.OnValue(v.reg, v.val)
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
	st.lastLine = lastLine
	c.stats.Cycles += uint64(done)
	c.stats.Instructions += uint64(commits)
	c.stats.Fetches += uint64(fetches)
	*wb = *wbVal
	*mm = *mmVal
	*ex = *q0
	*id = *q1
	st.pc = fpc
	st.redirectHold = hold
	return true
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
