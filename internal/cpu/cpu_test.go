package cpu

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"asbr/internal/asm"
	"asbr/internal/core"
	"asbr/internal/isa"
	"asbr/internal/mem"
	"asbr/internal/obs"
	"asbr/internal/predict"
)

// run assembles src and runs it on a machine with ideal memory and no
// predictor unless cfg overrides. The extra mispredict bubbles are
// disabled unless explicitly requested, so the textbook 2-cycle flush
// arithmetic in these tests stays exact.
func run(t *testing.T, src string, cfg Config) (*CPU, Stats) {
	t.Helper()
	if cfg.ExtraMispredictCycles == 0 {
		cfg.NoExtraMispredict = true
	}
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := MustNew(cfg, p)
	st, err := c.Run()
	if err != nil {
		t.Fatalf("run: %v\nlisting:\n%s", err, asm.Disassemble(p))
	}
	return c, st
}

func TestStraightLineTiming(t *testing.T) {
	// 4 ALU instructions + jr ra: last instruction commits at cycle
	// N+4 on an ideal 5-stage pipe.
	_, st := run(t, `
main:	addiu	t0, zero, 1
	addiu	t1, zero, 2
	addiu	t2, zero, 3
	addu	t3, t0, t1
	jr	ra
`, Config{})
	if st.Instructions != 5 {
		t.Fatalf("instructions = %d, want 5", st.Instructions)
	}
	if st.Cycles != 9 {
		t.Fatalf("cycles = %d, want 9 (5-stage fill + 5 instructions)", st.Cycles)
	}
}

func TestALUAndForwarding(t *testing.T) {
	c, _ := run(t, `
main:	addiu	t0, zero, 7
	addiu	t1, zero, 3
	addu	t2, t0, t1	# back-to-back forward
	subu	t3, t2, t1	# forward from previous
	sll	t4, t2, 2
	sra	t5, t4, 1
	srl	t6, t4, 1
	and	t7, t2, t1
	or	s0, t0, t1
	xor	s1, t0, t1
	nor	s2, zero, zero
	slt	s3, t1, t0
	sltu	s4, t0, t1
	jr	ra
`, Config{})
	want := map[isa.Reg]int32{
		isa.RegT0: 7, isa.RegT0 + 1: 3, isa.RegT0 + 2: 10, isa.RegT0 + 3: 7,
		isa.RegT0 + 4: 40, isa.RegT0 + 5: 20, isa.RegT0 + 6: 20, isa.RegT7: 2,
		isa.RegS0: 7, isa.RegS0 + 1: 4, isa.RegS0 + 2: -1, isa.RegS0 + 3: 1, isa.RegS0 + 4: 0,
	}
	for r, v := range want {
		if got := c.Reg(r); got != v {
			t.Errorf("%s = %d, want %d", r, got, v)
		}
	}
}

func TestLoadStoreAndSignExtension(t *testing.T) {
	c, _ := run(t, `
main:	la	t0, buf
	li	t1, -2
	sw	t1, 0(t0)
	lw	t2, 0(t0)
	lb	t3, 0(t0)	# 0xfe -> -2
	lbu	t4, 0(t0)	# 0xfe -> 254
	lh	t5, 0(t0)	# 0xfffe -> -2
	lhu	t6, 0(t0)	# 0xfffe -> 65534
	sb	t1, 8(t0)
	lw	t7, 8(t0)	# only low byte written
	sh	t1, 12(t0)
	lw	s0, 12(t0)
	jr	ra
	.data
buf:	.space	16
`, Config{})
	checks := map[isa.Reg]int32{
		isa.RegT0 + 2: -2, isa.RegT0 + 3: -2, isa.RegT0 + 4: 254,
		isa.RegT0 + 5: -2, isa.RegT0 + 6: 65534,
		isa.RegT7: 0xfe, isa.RegS0: 0xfffe,
	}
	for r, v := range checks {
		if got := c.Reg(r); got != v {
			t.Errorf("%s = %d (0x%x), want %d", r, got, got, v)
		}
	}
}

func TestLoadUseStall(t *testing.T) {
	// Dependent use right after a load costs exactly one extra cycle
	// compared to an independent instruction in between.
	_, dep := run(t, `
main:	la	t0, x
	lw	t1, 0(t0)
	addu	t2, t1, t1
	jr	ra
	.data
x:	.word	21
`, Config{})
	_, indep := run(t, `
main:	la	t0, x
	lw	t1, 0(t0)
	addiu	t3, zero, 5
	addu	t2, t1, t1
	jr	ra
	.data
x:	.word	21
`, Config{})
	if dep.LoadUseStalls != 1 {
		t.Errorf("dependent: load-use stalls = %d, want 1", dep.LoadUseStalls)
	}
	if indep.LoadUseStalls != 0 {
		t.Errorf("independent: load-use stalls = %d, want 0", indep.LoadUseStalls)
	}
	// One more instruction but no stall: same cycle count.
	if indep.Cycles != dep.Cycles {
		t.Errorf("cycles: indep=%d dep=%d (scheduling should hide the bubble)", indep.Cycles, dep.Cycles)
	}
	c, _ := run(t, `
main:	la	t0, x
	lw	t1, 0(t0)
	addu	t2, t1, t1
	jr	ra
	.data
x:	.word	21
`, Config{})
	if c.Reg(isa.RegT0+2) != 42 {
		t.Errorf("forwarded load value wrong: %d", c.Reg(isa.RegT0+2))
	}
}

func TestMultDivTiming(t *testing.T) {
	c, st := run(t, `
main:	li	t0, 6
	li	t1, 7
	mult	t0, t1
	mflo	t2
	li	t3, 100
	li	t4, 9
	div	t3, t4
	mflo	t5
	mfhi	t6
	multu	t0, t1
	mfhi	t7
	jr	ra
`, Config{MultCycles: 4, DivCycles: 16})
	if c.Reg(isa.RegT0+2) != 42 {
		t.Errorf("mult result = %d", c.Reg(isa.RegT0+2))
	}
	if c.Reg(isa.RegT0+5) != 11 || c.Reg(isa.RegT0+6) != 1 {
		t.Errorf("div = %d rem %d", c.Reg(isa.RegT0+5), c.Reg(isa.RegT0+6))
	}
	if c.Reg(isa.RegT7) != 0 {
		t.Errorf("multu hi = %d", c.Reg(isa.RegT7))
	}
	if st.ExStalls != 3+15+3 {
		t.Errorf("EX stalls = %d, want %d", st.ExStalls, 3+15+3)
	}
}

func TestMult64BitResult(t *testing.T) {
	c, _ := run(t, `
main:	li	t0, 0x10000
	li	t1, 0x10000
	mult	t0, t1
	mfhi	t2
	mflo	t3
	jr	ra
`, Config{})
	if c.Reg(isa.RegT0+2) != 1 || c.Reg(isa.RegT0+3) != 0 {
		t.Errorf("hi:lo = %d:%d, want 1:0", c.Reg(isa.RegT0+2), c.Reg(isa.RegT0+3))
	}
}

func TestBranchNotTakenPenalty(t *testing.T) {
	// A taken branch with no predictor costs the 2-cycle flush.
	_, taken := run(t, `
main:	li	t0, 1
	bnez	t0, skip
	addiu	t1, zero, 99
skip:	jr	ra
`, Config{})
	_, fall := run(t, `
main:	li	t0, 0
	bnez	t0, skip
	addiu	t1, zero, 99
skip:	jr	ra
`, Config{})
	if taken.Mispredicts != 1 {
		t.Errorf("taken: mispredicts = %d, want 1", taken.Mispredicts)
	}
	if fall.Mispredicts != 0 {
		t.Errorf("fall-through: mispredicts = %d, want 0", fall.Mispredicts)
	}
	// Taken path commits one fewer instruction yet needs one more cycle.
	if taken.Instructions != fall.Instructions-1 {
		t.Errorf("instructions: taken=%d fall=%d", taken.Instructions, fall.Instructions)
	}
	if taken.Cycles != fall.Cycles+1 {
		t.Errorf("cycles: taken=%d fall=%d (2-cycle flush - 1 skipped inst)", taken.Cycles, fall.Cycles)
	}
	if taken.PredAccuracy() != 0 || fall.PredAccuracy() != 1 {
		t.Errorf("accuracy: taken=%v fall=%v", taken.PredAccuracy(), fall.PredAccuracy())
	}
}

func TestLoopCounts(t *testing.T) {
	c, st := run(t, `
main:	li	t0, 10
	li	t1, 0
loop:	addu	t1, t1, t0
	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`, Config{})
	if c.Reg(isa.RegT0+1) != 55 {
		t.Errorf("sum = %d, want 55", c.Reg(isa.RegT0+1))
	}
	if st.CondBranches != 10 || st.TakenBranches != 9 {
		t.Errorf("branches = %d taken %d, want 10/9", st.CondBranches, st.TakenBranches)
	}
}

func TestBimodalReducesCycles(t *testing.T) {
	src := `
main:	li	t0, 200
	li	t1, 0
loop:	addu	t1, t1, t0
	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`
	_, nt := run(t, src, Config{Branch: predict.BaselineNotTaken()})
	_, bi := run(t, src, Config{Branch: predict.BaselineBimodal()})
	if bi.Cycles >= nt.Cycles {
		t.Errorf("bimodal (%d cycles) should beat not-taken (%d cycles) on a loop", bi.Cycles, nt.Cycles)
	}
	if bi.PredAccuracy() < 0.95 {
		t.Errorf("bimodal accuracy = %v on a 200-iteration loop", bi.PredAccuracy())
	}
	// Steady state: taken branch with BTB hit has no penalty, so the
	// loop body costs 3 cycles/iteration.
	if bi.Mispredicts > 4 {
		t.Errorf("bimodal mispredicts = %d", bi.Mispredicts)
	}
}

func TestBTBMissTakenStillFlushes(t *testing.T) {
	// Direction predictor always-taken but no BTB: every taken branch
	// still pays the flush because fetch cannot redirect.
	src := `
main:	li	t0, 50
loop:	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`
	_, st := run(t, src, Config{Branch: predict.NewUnit(predict.Taken{}, nil)})
	if st.BTBMissTaken != 49 {
		t.Errorf("BTB-miss taken = %d, want 49", st.BTBMissTaken)
	}
	if st.Mispredicts != 49 {
		t.Errorf("flushes = %d, want 49", st.Mispredicts)
	}
	if st.DirMispredicts != 1 {
		t.Errorf("direction mispredicts = %d, want 1 (final not-taken)", st.DirMispredicts)
	}
}

func TestJumpsAndCalls(t *testing.T) {
	c, st := run(t, `
main:	li	a0, 5
	jal	double
	move	s0, v0
	li	a0, 8
	la	t9, double
	jalr	t9		# clobbers ra, so exit via syscall below
	move	s1, v0
	li	v0, 10
	li	a0, 0
	syscall
double:	addu	v0, a0, a0
	jr	ra
`, Config{})
	if c.Reg(isa.RegS0) != 10 || c.Reg(isa.RegS0+1) != 16 {
		t.Errorf("results = %d, %d", c.Reg(isa.RegS0), c.Reg(isa.RegS0+1))
	}
	if st.Jumps != 4 { // jal + jalr + 2 returning jr
		t.Errorf("jumps = %d, want 4", st.Jumps)
	}
	if st.IndirectJumps != 3 { // jalr + 2 jr
		t.Errorf("indirect jumps = %d, want 3", st.IndirectJumps)
	}
}

func TestJumpPenaltyOneCycle(t *testing.T) {
	// j costs 1 bubble; the equivalent straight line costs 0.
	_, withJ := run(t, `
main:	addiu	t0, zero, 1
	j	next
next:	addiu	t1, zero, 2
	jr	ra
`, Config{})
	_, straight := run(t, `
main:	addiu	t0, zero, 1
	nop
	addiu	t1, zero, 2
	jr	ra
`, Config{})
	if withJ.Cycles != straight.Cycles+1 {
		t.Errorf("j cycles=%d straight(nop) cycles=%d, want j = straight+1", withJ.Cycles, straight.Cycles)
	}
}

func TestSyscalls(t *testing.T) {
	c, st := run(t, `
main:	li	a0, 123
	li	v0, 1
	syscall			# print int
	li	a0, 'H'
	li	v0, 11
	syscall			# print char
	li	a0, 7
	li	v0, 10
	syscall			# exit(7)
	li	t0, 1		# never reached
`, Config{})
	if len(c.Output) != 1 || c.Output[0] != 123 {
		t.Errorf("Output = %v", c.Output)
	}
	if string(c.OutputStr) != "H" {
		t.Errorf("OutputStr = %q", c.OutputStr)
	}
	if c.ExitCode() != 7 {
		t.Errorf("exit = %d", c.ExitCode())
	}
	if st.Syscalls != 3 {
		t.Errorf("syscalls = %d", st.Syscalls)
	}
	if c.Reg(isa.RegT0) != 0 {
		t.Error("instruction after exit executed")
	}
}

func TestICacheStalls(t *testing.T) {
	src := `
main:	li	t0, 100
loop:	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`
	_, ideal := run(t, src, Config{})
	_, cached := run(t, src, Config{ICache: mem.DefaultICache()})
	if cached.Cycles <= ideal.Cycles {
		t.Errorf("icache misses should add cycles: %d vs %d", cached.Cycles, ideal.Cycles)
	}
	if cached.ICache.Misses() == 0 || cached.ICache.Misses() > 4 {
		t.Errorf("icache misses = %d, want a couple of cold misses", cached.ICache.Misses())
	}
	// The loop fits in one or two lines: hit rate must be high.
	if cached.ICache.MissRate() > 0.05 {
		t.Errorf("icache miss rate = %v", cached.ICache.MissRate())
	}
}

func TestDCacheStalls(t *testing.T) {
	src := `
main:	la	t0, buf
	li	t1, 64
loop:	sw	t1, 0(t0)
	lw	t2, 0(t0)
	addiu	t0, t0, 128	# new line every iteration
	addiu	t1, t1, -1
	bnez	t1, loop
	jr	ra
	.data
buf:	.space	8192
`
	_, ideal := run(t, src, Config{})
	_, cached := run(t, src, Config{DCache: mem.DefaultDCache()})
	if cached.Cycles <= ideal.Cycles {
		t.Errorf("dcache misses should add cycles: %d vs %d", cached.Cycles, ideal.Cycles)
	}
	if cached.DCache.Misses() < 60 {
		t.Errorf("dcache misses = %d, want ~64 cold misses", cached.DCache.Misses())
	}
	if cached.MemStalls == 0 {
		t.Error("no MEM stalls recorded")
	}
}

func TestRunOffTextEnd(t *testing.T) {
	p, err := asm.Assemble("main:\taddiu t0, zero, 1\n\taddiu t1, zero, 2\n")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(Config{}, p)
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "past the text segment") {
		t.Fatalf("err = %v", err)
	}
}

func TestMaxCycles(t *testing.T) {
	p, err := asm.Assemble("main:\tj main\n")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(Config{MaxCycles: 1000}, p)
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("err = %v", err)
	}
}

func TestDivByZeroErrors(t *testing.T) {
	p, err := asm.Assemble("main:\tli t0, 1\n\tdiv t0, zero\n\tjr ra\n")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(Config{}, p)
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnalignedAccessErrors(t *testing.T) {
	p, err := asm.Assemble("main:\tla t0, x\n\tlw t1, 1(t0)\n\tjr ra\n\t.data\nx:\t.word 1, 2\n")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(Config{}, p)
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Fatalf("err = %v", err)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c, _ := run(t, `
main:	addiu	zero, zero, 55
	addu	t0, zero, zero
	jr	ra
`, Config{})
	if c.Reg(isa.RegZero) != 0 || c.Reg(isa.RegT0) != 0 {
		t.Errorf("zero = %d, t0 = %d", c.Reg(isa.RegZero), c.Reg(isa.RegT0))
	}
}

func TestWrongPathLoadNotExecuted(t *testing.T) {
	// The wrong path after a taken branch contains a load from an
	// unmapped/garbage address; it must be squashed, not executed.
	c, _ := run(t, `
main:	li	t0, 1
	bnez	t0, ok
	lw	t1, -4(zero)	# wrong path: would be unaligned/garbage
	lw	t1, -4(zero)
ok:	li	t2, 5
	jr	ra
`, Config{})
	if c.Reg(isa.RegT0+2) != 5 {
		t.Errorf("t2 = %d", c.Reg(isa.RegT0+2))
	}
}

// asbrUnit returns an ASBR unit with the paper's default
// configuration whose BIT holds the conditional branches at pcs.
func asbrUnit(t *testing.T, p *isa.Program, pcs ...uint32) *core.Engine {
	t.Helper()
	entries, err := core.BuildBIT(p, pcs)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.DefaultConfig())
	if err := eng.Load(entries); err != nil {
		t.Fatal(err)
	}
	return eng
}

// sinkFunc adapts a function to obs.EventSink.
type sinkFunc func(obs.Event)

func (f sinkFunc) OnEvent(e obs.Event) { f(e) }

func TestBitswReachesHook(t *testing.T) {
	eng := core.NewEngine(core.Config{Banks: 3, TrackValidity: true})
	var banks []uint64
	eng.SetEventSink(sinkFunc(func(e obs.Event) {
		if e.Kind == obs.EvBankSwitch {
			banks = append(banks, e.Arg)
		}
	}))
	_, _ = run(t, `
main:	bitsw	2
	bitsw	0
	jr	ra
`, Config{Fold: eng})
	if len(banks) != 2 || banks[0] != 2 || banks[1] != 0 {
		t.Errorf("banks = %v", banks)
	}
	if got := eng.Stats().BankSwitches; got != 2 || eng.ActiveBank() != 0 {
		t.Errorf("unit saw %d switches, active bank %d", got, eng.ActiveBank())
	}
}

// pairingSrc writes registers through ALU ops, a load, mult/mflo and a
// call, and loops on a branch the unit folds once the loop counter's
// producer has delivered.
const pairingSrc = `
main:	move	s7, ra		# preserve the halt sentinel across the call
	li	t0, 3
	li	t1, 4
loop:	addiu	t1, t1, -1
	addu	t2, t0, t1
	lw	t3, x
	mult	t0, t1
	mflo	t4
	nop
	nop
	bnez	t1, loop
	jal	f
	move	ra, s7
	jr	ra
f:	addiu	v0, zero, 9
	jr	ra
	.data
x:	.word	77
`

// Property: the BDT validity counter of every register equals the
// number of its producers in flight that issued (OnIssue at decode) but
// have not delivered their value yet, after every cycle and at every
// update point — the pairing invariant the ASBR unit relies on.
func TestIssueValuePairing(t *testing.T) {
	p, err := asm.Assemble(pairingSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range []Stage{StageEX, StageMEM, StageWB} {
		eng := asbrUnit(t, p, core.FoldableBranches(p)...)
		c := MustNew(Config{Fold: eng, BDTUpdate: up, NoExtraMispredict: true}, p)
		peak := int32(0)
		for !c.Halted() && c.Err() == nil {
			c.Step()
			var want [isa.NumRegs]int32
			for i := range c.pipe.slots {
				s := &c.pipe.slots[i]
				if s.valid && s.counted && !s.valueSent && s.d.Dest != isa.RegZero {
					want[s.d.Dest]++
				}
			}
			for r := range want {
				if got := eng.BDTState().Counter(isa.Reg(r)); got != want[r] {
					t.Fatalf("update=%v cycle %d: counter[%v] = %d, %d producers in flight",
						up, c.Stats().Cycles, isa.Reg(r), got, want[r])
				}
				peak = max(peak, want[r])
			}
		}
		if c.Err() != nil {
			t.Fatalf("update=%v: %v", up, c.Err())
		}
		if peak == 0 || eng.Stats().Hits == 0 {
			t.Fatalf("update=%v: vacuous run (peak in flight %d, BIT hits %d)", up, peak, eng.Stats().Hits)
		}
		if c.Stats().Folded == 0 {
			t.Errorf("update=%v: the loop branch never folded", up)
		}
	}
}

func TestFoldHookReplacesBranch(t *testing.T) {
	// The nops let li's value reach the BDT (MEM update point) before
	// the branch is fetched, so the predicate is valid and it folds.
	src := `
main:	li	t0, 1
	nop
	nop
	nop
	bnez	t0, skip	# always taken
	addiu	t1, zero, 99
skip:	addiu	t2, zero, 5
	addiu	t3, zero, 6
	jr	ra
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := asbrUnit(t, p, isa.DefaultTextBase+16)
	c := MustNew(Config{Fold: eng}, p)
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if es := eng.Stats(); es.Folds != 1 || es.Fallbacks != 0 {
		t.Fatalf("unit folds = %d, fallbacks = %d", es.Folds, es.Fallbacks)
	}
	if st.Folded != 1 || st.FoldedTaken != 1 {
		t.Fatalf("folded = %d/%d", st.Folded, st.FoldedTaken)
	}
	if st.CondBranches != 0 {
		t.Fatalf("folded branch still resolved in pipeline: %d", st.CondBranches)
	}
	if c.Reg(isa.RegT0+1) != 0 || c.Reg(isa.RegT0+2) != 5 || c.Reg(isa.RegT0+3) != 6 {
		t.Fatalf("architectural results wrong: t1=%d t2=%d t3=%d",
			c.Reg(isa.RegT0+1), c.Reg(isa.RegT0+2), c.Reg(isa.RegT0+3))
	}
	// li, 3 nops, BTI(addiu t2), addiu t3, jr: the branch never committed.
	if st.Instructions != 7 {
		t.Fatalf("instructions = %d, want 7", st.Instructions)
	}
	if st.Mispredicts != 0 {
		t.Fatalf("folding must not flush: %d", st.Mispredicts)
	}
}

func TestFoldFallThrough(t *testing.T) {
	src := `
main:	li	t0, 0
	nop
	nop
	nop
	bnez	t0, skip	# never taken
	addiu	t1, zero, 99
skip:	addiu	t2, zero, 5
	jr	ra
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := asbrUnit(t, p, isa.DefaultTextBase+16)
	c := MustNew(Config{Fold: eng}, p)
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Folded != 1 || st.FoldedTaken != 0 {
		t.Fatalf("folded = %d taken %d", st.Folded, st.FoldedTaken)
	}
	if c.Reg(isa.RegT0+1) != 99 || c.Reg(isa.RegT0+2) != 5 {
		t.Fatalf("t1=%d t2=%d", c.Reg(isa.RegT0+1), c.Reg(isa.RegT0+2))
	}
}

// observer records branch outcomes.
type observer struct {
	events []struct {
		pc     uint32
		taken  bool
		folded bool
	}
}

func (o *observer) OnBranch(pc uint32, taken, folded bool) {
	o.events = append(o.events, struct {
		pc     uint32
		taken  bool
		folded bool
	}{pc, taken, folded})
}

func TestBranchObserver(t *testing.T) {
	o := &observer{}
	_, _ = run(t, `
main:	li	t0, 3
loop:	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`, Config{Observer: o})
	if len(o.events) != 3 {
		t.Fatalf("events = %d, want 3", len(o.events))
	}
	if !o.events[0].taken || !o.events[1].taken || o.events[2].taken {
		t.Fatalf("outcomes = %+v", o.events)
	}
}

// Random-program oracle: straight-line ALU programs must produce the
// same architectural state as a plain functional interpreter,
// regardless of pipeline timing effects.
func TestRandomProgramsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	ops := []string{"addu", "subu", "and", "or", "xor", "nor", "slt", "sltu"}
	iops := []string{"addiu", "slti", "sltiu", "andi", "ori", "xori"}
	for trial := 0; trial < 200; trial++ {
		var b strings.Builder
		b.WriteString("main:\n")
		n := 5 + r.Intn(40)
		for i := 0; i < n; i++ {
			// Registers t0..t7, s0..s7 (8..23).
			rd := 8 + r.Intn(16)
			rs := 8 + r.Intn(16)
			rt := 8 + r.Intn(16)
			switch r.Intn(4) {
			case 0:
				b.WriteString("\tli r" + itoa(rd) + ", " + itoa(r.Intn(65536)-32768) + "\n")
			case 1:
				op := iops[r.Intn(len(iops))]
				imm := r.Intn(32768)
				b.WriteString("\t" + op + " r" + itoa(rd) + ", r" + itoa(rs) + ", " + itoa(imm) + "\n")
			case 2:
				sh := r.Intn(32)
				shop := []string{"sll", "srl", "sra"}[r.Intn(3)]
				b.WriteString("\t" + shop + " r" + itoa(rd) + ", r" + itoa(rt) + ", " + itoa(sh) + "\n")
			default:
				op := ops[r.Intn(len(ops))]
				b.WriteString("\t" + op + " r" + itoa(rd) + ", r" + itoa(rs) + ", r" + itoa(rt) + "\n")
			}
		}
		b.WriteString("\tjr ra\n")
		src := b.String()
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		c := MustNew(Config{}, p)
		if _, err := c.Run(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		oracle := interpret(t, p)
		for reg := isa.Reg(8); reg < 24; reg++ {
			if c.Reg(reg) != oracle[reg] {
				t.Fatalf("trial %d: %s = %d, oracle %d\n%s", trial, reg, c.Reg(reg), oracle[reg], src)
			}
		}
	}
}

// interpret is a trivial sequential oracle for straight-line ALU code
// ending in jr ra.
func interpret(t *testing.T, p *isa.Program) [32]int32 {
	t.Helper()
	var regs [32]int32
	pc := p.Entry
	for steps := 0; steps < 10000; steps++ {
		in, err := p.InstAt(pc)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		rs, rt := regs[in.Rs], regs[in.Rt]
		var v int32
		switch in.Op {
		case isa.OpADDU, isa.OpADD:
			v = rs + rt
		case isa.OpSUBU, isa.OpSUB:
			v = rs - rt
		case isa.OpAND:
			v = rs & rt
		case isa.OpOR:
			v = rs | rt
		case isa.OpXOR:
			v = rs ^ rt
		case isa.OpNOR:
			v = ^(rs | rt)
		case isa.OpSLT:
			if rs < rt {
				v = 1
			}
		case isa.OpSLTU:
			if uint32(rs) < uint32(rt) {
				v = 1
			}
		case isa.OpSLL:
			v = rt << uint(in.Imm)
		case isa.OpSRL:
			v = int32(uint32(rt) >> uint(in.Imm))
		case isa.OpSRA:
			v = rt >> uint(in.Imm)
		case isa.OpADDIU, isa.OpADDI:
			v = rs + in.Imm
		case isa.OpSLTI:
			if rs < in.Imm {
				v = 1
			}
		case isa.OpSLTIU:
			if uint32(rs) < uint32(in.Imm) {
				v = 1
			}
		case isa.OpANDI:
			v = rs & in.Imm
		case isa.OpORI:
			v = rs | in.Imm
		case isa.OpXORI:
			v = rs ^ in.Imm
		case isa.OpLUI:
			v = in.Imm << 16
		case isa.OpJR:
			return regs
		default:
			t.Fatalf("oracle: unsupported %v", in.Op)
		}
		if rd, ok := in.DestReg(); ok {
			regs[rd] = v
		}
		pc += 4
	}
	t.Fatal("oracle: did not terminate")
	return regs
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestExtraMispredictPenalty(t *testing.T) {
	src := `
main:	li	t0, 40
loop:	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`
	_, base := run(t, src, Config{})
	_, deep := run(t, src, Config{ExtraMispredictCycles: 3})
	// 39 taken mispredicts (not-taken default) x 3 extra bubbles.
	if want := base.Cycles + 39*3; deep.Cycles != want {
		t.Fatalf("deep front end cycles = %d, want %d (base %d)", deep.Cycles, want, base.Cycles)
	}
}

func TestDefaultConfigHasDeepFrontEnd(t *testing.T) {
	var cfg Config
	cfg.fillDefaults()
	if cfg.ExtraMispredictCycles != 2 {
		t.Fatalf("default extra mispredict cycles = %d, want 2", cfg.ExtraMispredictCycles)
	}
	cfg = Config{NoExtraMispredict: true}
	cfg.fillDefaults()
	if cfg.ExtraMispredictCycles != 0 {
		t.Fatal("NoExtraMispredict ignored")
	}
}

func TestIndirectJumpsRecover(t *testing.T) {
	// A return address clobbered between call and return, then a jump
	// through a non-ra register: every jr squashes the wrong-path fetch
	// behind it and redirects to its register target.
	src := `
main:	move	s7, ra
	jal	f
after:	li	s0, 42
	move	ra, s7
	jr	ra
f:	la	ra, after
	la	t0, g
	move	ra, t0		# actually return into g
	jr	ra
g:	li	s1, 7
	la	t1, after
	jr	t1		# not a ra-return
`
	c, st := run(t, src, Config{})
	if c.Reg(isa.RegS0) != 42 || c.Reg(isa.RegS0+1) != 7 {
		t.Fatalf("s0=%d s1=%d", c.Reg(isa.RegS0), c.Reg(isa.RegS0+1))
	}
	if st.IndirectJumps != 3 {
		t.Fatalf("indirect jumps = %d, want 3", st.IndirectJumps)
	}
}

// traceLoopSrc is a two-iteration countdown loop: its trace covers a
// mispredicted back-edge squash and the final fall-through.
const traceLoopSrc = `
main:	li	t0, 2
loop:	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`

// traceFoldSrc is the fold program: the bnez at text+16 is folded by
// the ASBR unit (see traceFold), so its target instruction is injected
// into the fetch slot and starred in the trace.
const traceFoldSrc = `
main:	li	t0, 1
	nop
	nop
	nop
	bnez	t0, skip
	addiu	t1, zero, 99
skip:	addiu	t2, zero, 5
	jr	ra
`

// traceLoop runs traceLoopSrc on engine e with the pipeline diagram
// attached.
func traceLoop(t *testing.T, e Engine) (*CPU, string) {
	t.Helper()
	p, err := asm.Assemble(traceLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	c := MustNew(Config{Trace: &buf, NoExtraMispredict: true, Engine: e}, p)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c, buf.String()
}

// traceFold runs traceFoldSrc on engine e with the branch folded taken
// and the pipeline diagram attached.
func traceFold(t *testing.T, e Engine) string {
	t.Helper()
	p, err := asm.Assemble(traceFoldSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng := asbrUnit(t, p, isa.DefaultTextBase+16)
	var buf strings.Builder
	c := MustNew(Config{Fold: eng, Trace: &buf, Engine: e}, p)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestPipelineTrace(t *testing.T) {
	c, out := traceLoop(t, EngineAuto)
	lines := strings.Count(out, "\n")
	if uint64(lines) != c.Stats().Cycles {
		t.Fatalf("trace rows = %d, cycles = %d", lines, c.Stats().Cycles)
	}
	for _, want := range []string{"addiu t0, t0, -1", "bne t0, zero", "jr ra", "| WB "} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestTraceMarksFoldedSlots(t *testing.T) {
	if out := traceFold(t, EngineAuto); !strings.Contains(out, "*") {
		t.Fatalf("folded slot not starred:\n%s", out)
	}
}

// -update rewrites the checked-in trace goldens from the current
// writer: `go test ./internal/cpu -run TestTraceGolden -update`.
var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// TestTraceGolden pins the Config.Trace pipeline diagram byte for byte
// for the loop and fold programs on the fast and reference engines, so
// a pipeline rewrite cannot move an instruction between stages (or
// change a row's format) unnoticed.
func TestTraceGolden(t *testing.T) {
	for _, e := range []Engine{EngineFast, EngineReference} {
		_, loop := traceLoop(t, e)
		for name, got := range map[string]string{
			"trace_loop.golden": loop,
			"trace_fold.golden": traceFold(t, e),
		} {
			path := filepath.Join("testdata", name)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s on %s drifted:\n--- got ---\n%s--- want ---\n%s", name, e, got, want)
			}
		}
	}
}

// Property: statistics invariants hold on random branchy programs.
func TestStatsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		var b strings.Builder
		b.WriteString("main:\tli s0, " + strconv.Itoa(5+r.Intn(40)) + "\n")
		b.WriteString("loop:\n")
		for i := 0; i < 3+r.Intn(6); i++ {
			rd := 8 + r.Intn(8)
			b.WriteString("\taddiu r" + strconv.Itoa(rd) + ", r" + strconv.Itoa(8+r.Intn(8)) + ", " + strconv.Itoa(r.Intn(9)-4) + "\n")
			if r.Intn(3) == 0 {
				b.WriteString("\tbltz r" + strconv.Itoa(rd) + ", skip" + strconv.Itoa(i) + "\n")
				b.WriteString("\taddiu r" + strconv.Itoa(rd) + ", zero, 1\n")
				b.WriteString("skip" + strconv.Itoa(i) + ":\n")
			}
		}
		b.WriteString("\taddiu s0, s0, -1\n\tbnez s0, loop\n\tjr ra\n")
		_, st := run(t, b.String(), Config{Branch: predict.BaselineBimodal()})
		if st.Cycles < st.Instructions {
			t.Fatalf("trial %d: CPI < 1 on a scalar pipe: %+v", trial, st)
		}
		if st.TakenBranches > st.CondBranches {
			t.Fatalf("trial %d: taken > total: %+v", trial, st)
		}
		if st.DirMispredicts > st.CondBranches {
			t.Fatalf("trial %d: mispredicts > branches: %+v", trial, st)
		}
		if st.Mispredicts > st.DirMispredicts+st.BTBMissTaken+st.BTBWrongTarget {
			t.Fatalf("trial %d: flushes unaccounted: %+v", trial, st)
		}
		if st.PredAccuracy() < 0 || st.PredAccuracy() > 1 {
			t.Fatalf("trial %d: accuracy out of range: %v", trial, st.PredAccuracy())
		}
	}
}
