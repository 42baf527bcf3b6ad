package core_test

import (
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"asbr/internal/asm"
	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/workload"
)

func TestBITAddLookup(t *testing.T) {
	b := core.NewBIT(2)
	e1 := core.BITEntry{PC: 0x400010, BTA: 0x400020, Reg: 8, Cond: isa.CondNE}
	if err := b.Add(e1); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Lookup(0x400010); !ok || got != e1 {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if _, ok := b.Lookup(0x400014); ok {
		t.Fatal("phantom hit")
	}
	if err := b.Add(e1); err == nil {
		t.Fatal("duplicate PC accepted")
	}
	if err := b.Add(core.BITEntry{PC: 0x400030}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(core.BITEntry{PC: 0x400040}); err == nil {
		t.Fatal("capacity exceeded silently")
	}
	if b.Len() != 2 || b.Capacity() != 2 {
		t.Fatalf("len=%d cap=%d", b.Len(), b.Capacity())
	}
	b.Clear()
	if b.Len() != 0 {
		t.Fatal("Clear left entries")
	}
	if _, ok := b.Lookup(0x400010); ok {
		t.Fatal("Clear left index")
	}
}

// TestBITScreen checks the screen: a PC sharing an entry's screen slot
// still misses, and Realias moves the entry's slot with it.
func TestBITScreen(t *testing.T) {
	b := core.NewBIT(4)
	const pc = 0x400010
	if err := b.Add(core.BITEntry{PC: pc}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(pc + 4096); ok {
		t.Fatal("screen alias hit")
	}
	if err := b.Realias(pc, 0x400024); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(pc); ok {
		t.Fatal("realiased entry still hits its old PC")
	}
	if e, ok := b.Lookup(0x400024); !ok || e.PC != 0x400024 {
		t.Fatalf("realiased entry: %+v, %v", e, ok)
	}
}

// TestBDTFigure8 reproduces the paper's Figure 8 scenario: a small BDT
// with "!=0" and "<=0" columns tracked per register.
func TestBDTFigure8(t *testing.T) {
	var d core.BDT
	// R0 (paper figure's first row): value 5 -> !=0 true, <=0 false.
	d.OnIssue(1)
	d.OnValue(1, 5)
	if !d.Holds(1, isa.CondNE) || d.Holds(1, isa.CondLE) {
		t.Fatal("r1=5: NE/LE bits wrong")
	}
	// Value 0: !=0 false, <=0 true.
	d.OnIssue(2)
	d.OnValue(2, 0)
	if d.Holds(2, isa.CondNE) || !d.Holds(2, isa.CondLE) {
		t.Fatal("r2=0: NE/LE bits wrong")
	}
	// Negative: != and <= and < all true.
	d.OnIssue(3)
	d.OnValue(3, -7)
	if !d.Holds(3, isa.CondNE) || !d.Holds(3, isa.CondLE) || !d.Holds(3, isa.CondLT) || d.Holds(3, isa.CondGE) {
		t.Fatal("r3=-7: bits wrong")
	}
}

func TestBDTValidityCounter(t *testing.T) {
	var d core.BDT
	r := isa.Reg(9)
	if d.Valid(r) {
		t.Fatal("unknown register must be invalid")
	}
	d.OnIssue(r)
	if d.Valid(r) {
		t.Fatal("in-flight producer must invalidate")
	}
	d.OnValue(r, 3)
	if !d.Valid(r) {
		t.Fatal("delivered value must validate")
	}
	// Two producers in flight: one delivery is not enough.
	d.OnIssue(r)
	d.OnIssue(r)
	d.OnValue(r, 1)
	if d.Valid(r) {
		t.Fatal("second in-flight producer must keep it invalid")
	}
	d.OnValue(r, 2)
	if !d.Valid(r) || !d.Holds(r, isa.CondGT) {
		t.Fatal("after both deliveries the latest value governs")
	}
	if d.Counter(r) != 0 {
		t.Fatalf("counter = %d", d.Counter(r))
	}
}

func TestBDTZeroRegisterIgnored(t *testing.T) {
	var d core.BDT
	d.OnIssue(isa.RegZero)
	d.OnValue(isa.RegZero, 7)
	if d.Valid(isa.RegZero) {
		t.Fatal("zero register must never become a tracked predicate source")
	}
	if d.Counter(isa.RegZero) != 0 {
		t.Fatal("zero register counter moved")
	}
}

// Property: for any interleaving of issues and values, the counter
// equals issues-minus-deliveries (floored at 0) and Valid iff zero and
// at least one delivery happened.
func TestBDTCounterInvariant(t *testing.T) {
	r := isa.Reg(5)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		var d core.BDT
		inflight, delivered := 0, 0
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 {
				d.OnIssue(r)
				inflight++
			} else {
				d.OnValue(r, int32(rng.Intn(7)-3))
				if inflight > 0 {
					inflight--
				}
				delivered++
			}
			if int(d.Counter(r)) != inflight {
				t.Fatalf("counter=%d want %d", d.Counter(r), inflight)
			}
			if d.Valid(r) != (inflight == 0 && delivered > 0) {
				t.Fatalf("valid=%v inflight=%d delivered=%d", d.Valid(r), inflight, delivered)
			}
		}
	}
}

func mustProgram(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const takenLoopSrc = `
main:	li	t0, 50
	li	t1, 0
loop:	addu	t1, t1, t0
	addiu	t0, t0, -1
	nop
	nop
	nop
	nop
	bnez	t0, loop
	jr	ra
`

// branchPC finds the nth conditional branch in the program.
func branchPC(t *testing.T, p *isa.Program, n int) uint32 {
	t.Helper()
	for i, w := range p.Text {
		in, err := isa.Decode(w)
		if err == nil && in.IsCondBranch() {
			if n == 0 {
				return p.TextBase + uint32(i*4)
			}
			n--
		}
	}
	t.Fatal("branch not found")
	return 0
}

func TestBuildEntry(t *testing.T) {
	p := mustProgram(t, takenLoopSrc)
	pc := branchPC(t, p, 0)
	e, err := core.BuildEntry(p, pc)
	if err != nil {
		t.Fatal(err)
	}
	if e.PC != pc || e.Reg != isa.RegT0 || e.Cond != isa.CondNE {
		t.Fatalf("entry = %+v", e)
	}
	if e.BTA != p.Symbols["loop"] {
		t.Fatalf("BTA = 0x%x, want loop 0x%x", e.BTA, p.Symbols["loop"])
	}
	wantBTI, _ := p.WordAt(e.BTA)
	wantBFI, _ := p.WordAt(pc + 4)
	if e.BTI != wantBTI || e.BFI != wantBFI {
		t.Fatal("BTI/BFI words wrong")
	}
}

func TestBuildEntryRejections(t *testing.T) {
	p := mustProgram(t, `
main:	addu	t0, t1, t2
	beq	t0, t1, main	# two-register compare
	beqz	zero, main	# zero-register test
	jr	ra
`)
	base := p.TextBase
	if _, err := core.BuildEntry(p, base); err == nil || !strings.Contains(err.Error(), "not a conditional branch") {
		t.Errorf("non-branch: %v", err)
	}
	if _, err := core.BuildEntry(p, base+4); err == nil || !strings.Contains(err.Error(), "two registers") {
		t.Errorf("two-register: %v", err)
	}
	if _, err := core.BuildEntry(p, base+8); err == nil || !strings.Contains(err.Error(), "zero register") {
		t.Errorf("zero-register: %v", err)
	}
	// Branch as the last instruction has no in-text fall-through.
	p2 := mustProgram(t, "main:\tbnez t0, main\n")
	if _, err := core.BuildEntry(p2, p2.TextBase); err == nil {
		t.Error("missing fall-through accepted")
	}
}

func TestBuildBITAndFoldable(t *testing.T) {
	p := mustProgram(t, takenLoopSrc)
	pcs := core.FoldableBranches(p)
	if len(pcs) != 1 {
		t.Fatalf("foldable = %v", pcs)
	}
	entries, err := core.BuildBIT(p, pcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	if _, err := core.BuildBIT(p, []uint32{pcs[0], pcs[0]}); err == nil {
		t.Fatal("duplicate PCs accepted")
	}
}

// TestFoldableBranchesScan checks the candidate scan on the compiled
// benchmarks against BuildEntry word by word, and bounds its
// allocations to the result slice's growth: nothing per rejected word.
func TestFoldableBranchesScan(t *testing.T) {
	for _, name := range workload.Names() {
		p, err := workload.Build(name, true)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint32
		for i := range p.Text {
			pc := p.TextBase + uint32(i*4)
			if _, err := core.BuildEntry(p, pc); err == nil {
				want = append(want, pc)
			}
		}
		got := core.FoldableBranches(p)
		if !slices.Equal(got, want) {
			t.Errorf("%s: FoldableBranches = %x, want %x", name, got, want)
		}
		allocs := testing.AllocsPerRun(10, func() { core.FoldableBranches(p) })
		if allocs > float64(len(got)+1) {
			t.Errorf("%s: scan of %d words with %d candidates made %v allocations, want at most %d",
				name, len(p.Text), len(got), allocs, len(got)+1)
		}
	}
}

// runWith runs src with an optional engine, returning machine + stats.
func runWith(t *testing.T, src string, eng *core.Engine, update cpu.Stage) (*cpu.CPU, cpu.Stats) {
	t.Helper()
	p := mustProgram(t, src)
	cfg := cpu.Config{BDTUpdate: update}
	if eng != nil {
		cfg.Fold = eng
	}
	c := cpu.MustNew(cfg, p)
	st, err := c.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c, st
}

func TestEngineFoldsLoopBranch(t *testing.T) {
	p := mustProgram(t, takenLoopSrc)
	entries, err := core.BuildBIT(p, core.FoldableBranches(p))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.DefaultConfig())
	if err := eng.Load(entries); err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.Config{Fold: eng, BDTUpdate: cpu.StageMEM}, p)
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Reg(isa.RegT0+1) != 1275 { // sum 1..50
		t.Fatalf("sum = %d, want 1275", c.Reg(isa.RegT0+1))
	}
	es := eng.Stats()
	if es.Folds == 0 {
		t.Fatalf("no folds happened: %+v", es)
	}
	// The distance between `addiu t0,t0,-1` and the branch is 3
	// (3 nops); with the MEM update point (threshold 3) almost every
	// iteration folds. The first encounter may fall back (t0 unknown).
	if st.Folded < 45 {
		t.Fatalf("folded = %d of 50 dynamic branches; stats %+v", st.Folded, es)
	}
	if es.Folds != st.Folded {
		t.Fatalf("engine folds %d vs cpu folded %d", es.Folds, st.Folded)
	}
	if got := eng.FoldsByPC()[entries[0].PC]; got != es.Folds {
		t.Fatalf("per-PC folds = %d, want %d", got, es.Folds)
	}
}

// TestFoldEquivalence is the central architectural-correctness
// property: enabling ASBR must never change program results, for every
// BDT update point.
func TestFoldEquivalence(t *testing.T) {
	srcs := map[string]string{
		"taken-loop": takenLoopSrc,
		"alternating": `
main:	li	t0, 20
	li	t1, 0
	li	t2, 0
loop:	andi	t3, t0, 1
	nop
	nop
	nop
	nop
	beqz	t3, even
	addiu	t1, t1, 1
	j	cont
even:	addiu	t2, t2, 1
cont:	addiu	t0, t0, -1
	nop
	nop
	nop
	nop
	bnez	t0, loop
	jr	ra
`,
		"data-dependent": `
main:	la	s0, data
	li	s1, 8
	li	s2, 0
loop:	lw	t0, 0(s0)
	addiu	s0, s0, 4
	nop
	nop
	nop
	nop
	blez	t0, skip
	addu	s2, s2, t0
skip:	addiu	s1, s1, -1
	nop
	nop
	nop
	nop
	bnez	s1, loop
	jr	ra
	.data
data:	.word	5, -3, 0, 7, -1, 2, 0, 9
`,
	}
	for name, src := range srcs {
		for _, up := range []cpu.Stage{cpu.StageEX, cpu.StageMEM, cpu.StageWB} {
			base, _ := runWith(t, src, nil, up)
			p := mustProgram(t, src)
			entries, err := core.BuildBIT(p, core.FoldableBranches(p))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			eng := core.NewEngine(core.DefaultConfig())
			if err := eng.Load(entries); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			folded, _ := runWith(t, src, eng, up)
			for r := isa.Reg(1); r < isa.NumRegs; r++ {
				if r == isa.RegSP || r == isa.RegRA {
					continue
				}
				if base.Reg(r) != folded.Reg(r) {
					t.Errorf("%s update=%v: %s = %d base vs %d folded",
						name, up, r, base.Reg(r), folded.Reg(r))
				}
			}
			if eng.Stats().Folds == 0 {
				t.Errorf("%s update=%v: nothing folded; test is vacuous", name, up)
			}
		}
	}
}

// TestThresholdOrdering verifies the paper's §5.2 claim: lowering the
// update threshold (WB -> MEM -> EX) monotonically increases fold
// coverage for a fixed def-to-branch distance.
func TestThresholdOrdering(t *testing.T) {
	// Distance 2: two independent instructions between the def of t0
	// and the branch.
	src := `
main:	li	t0, 60
loop:	addiu	t0, t0, -1
	nop
	nop
	bnez	t0, loop
	jr	ra
`
	folds := map[cpu.Stage]uint64{}
	for _, up := range []cpu.Stage{cpu.StageEX, cpu.StageMEM, cpu.StageWB} {
		p := mustProgram(t, src)
		entries, err := core.BuildBIT(p, core.FoldableBranches(p))
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(core.DefaultConfig())
		if err := eng.Load(entries); err != nil {
			t.Fatal(err)
		}
		_, st := runWith(t, src, eng, up)
		folds[up] = st.Folded
	}
	if !(folds[cpu.StageEX] >= folds[cpu.StageMEM] && folds[cpu.StageMEM] >= folds[cpu.StageWB]) {
		t.Fatalf("fold coverage not monotone: EX=%d MEM=%d WB=%d",
			folds[cpu.StageEX], folds[cpu.StageMEM], folds[cpu.StageWB])
	}
	if folds[cpu.StageEX] == 0 {
		t.Fatal("EX update point folded nothing at distance 2")
	}
	// At distance 2 the WB update point (threshold 4) must fall back
	// on in-flight producers, folding strictly less than EX.
	if folds[cpu.StageWB] >= folds[cpu.StageEX] {
		t.Fatalf("threshold effect invisible: EX=%d WB=%d", folds[cpu.StageEX], folds[cpu.StageWB])
	}
}

func TestValidityPreventsStaleFold(t *testing.T) {
	// Def immediately before the branch: never enough slack, so a
	// tracking engine must always fall back, and the program result
	// must stay correct.
	src := `
main:	li	t0, 30
	li	t1, 0
loop:	addu	t1, t1, t0
	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`
	p := mustProgram(t, src)
	entries, err := core.BuildBIT(p, core.FoldableBranches(p))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.DefaultConfig())
	if err := eng.Load(entries); err != nil {
		t.Fatal(err)
	}
	c, st := runWith(t, src, eng, cpu.StageWB)
	if c.Reg(isa.RegT0+1) != 465 {
		t.Fatalf("sum = %d, want 465", c.Reg(isa.RegT0+1))
	}
	if st.Folded != 0 {
		t.Fatalf("folded %d branches whose predicate was in flight", st.Folded)
	}
	if eng.Stats().Fallbacks == 0 {
		t.Fatal("no fallbacks recorded")
	}
}

func TestUnsafeModeFoldsMore(t *testing.T) {
	src := `
main:	li	t0, 30
	li	t1, 0
loop:	addu	t1, t1, t0
	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`
	p := mustProgram(t, src)
	entries, _ := core.BuildBIT(p, core.FoldableBranches(p))
	unsafe := core.NewEngine(core.Config{TrackValidity: false})
	if err := unsafe.Load(entries); err != nil {
		t.Fatal(err)
	}
	_, st := runWith(t, src, unsafe, cpu.StageWB)
	if st.Folded == 0 {
		t.Fatal("unsafe mode should fold despite in-flight producers")
	}
	// With a stale predicate the loop trip count may differ — that is
	// exactly why the ablation is labelled unsafe; only coverage is
	// asserted here.
}

func TestBankSwitching(t *testing.T) {
	src := `
main:	li	t0, 10
l1:	addiu	t0, t0, -1
	nop
	nop
	nop
	bnez	t0, l1
	bitsw	1
	li	t1, 10
l2:	addiu	t1, t1, -1
	nop
	nop
	nop
	bnez	t1, l2
	jr	ra
`
	p := mustProgram(t, src)
	pcs := core.FoldableBranches(p)
	if len(pcs) != 2 {
		t.Fatalf("foldable = %v", pcs)
	}
	e1, err := core.BuildBIT(p, pcs[:1])
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.BuildBIT(p, pcs[1:])
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.Config{BITEntries: 1, Banks: 2, TrackValidity: true})
	if err := eng.LoadBank(0, e1); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadBank(1, e2); err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.Config{Fold: eng}, p)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	es := eng.Stats()
	if es.BankSwitches != 1 {
		t.Fatalf("bank switches = %d", es.BankSwitches)
	}
	if eng.ActiveBank() != 1 {
		t.Fatalf("active bank = %d", eng.ActiveBank())
	}
	// Both loops' branches folded even though each bank holds only one.
	byPC := eng.FoldsByPC()
	if byPC[pcs[0]] == 0 || byPC[pcs[1]] == 0 {
		t.Fatalf("per-branch folds = %v", byPC)
	}
}

func TestLoadBankErrors(t *testing.T) {
	eng := core.NewEngine(core.Config{BITEntries: 1, Banks: 1})
	if err := eng.LoadBank(5, nil); err == nil {
		t.Fatal("bad bank index accepted")
	}
	two := []core.BITEntry{{PC: 4}, {PC: 8}}
	if err := eng.Load(two); err == nil {
		t.Fatal("overflow accepted")
	}
}

func TestEngineReset(t *testing.T) {
	eng := core.NewEngine(core.DefaultConfig())
	eng.OnIssue(7)
	eng.OnValue(7, 1)
	eng.OnBankSwitch(0)
	eng.Reset()
	if eng.Stats() != (core.Stats{}) {
		t.Fatal("Reset left stats")
	}
	if eng.BDTState().Valid(7) {
		t.Fatal("Reset left BDT state")
	}
}

func TestFoldRateAndStats(t *testing.T) {
	s := core.Stats{Hits: 10, Folds: 7}
	if s.FoldRate() != 0.7 {
		t.Fatalf("fold rate = %v", s.FoldRate())
	}
	if (core.Stats{}).FoldRate() != 0 {
		t.Fatal("empty fold rate")
	}
}

// TestBITSharedScreenSlots loads entries that share screen slots (PCs a
// multiple of 4 KB apart) and more entries than a screen slot can
// name: every entry must still be found, and a PC sharing a bit but
// absent from the table must miss.
func TestBITSharedScreenSlots(t *testing.T) {
	const base = 0x400000
	b := core.NewBIT(300)
	for i := uint32(0); i < 300; i++ {
		if err := b.Add(core.BITEntry{PC: base + i*4096, BTA: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 300; i++ {
		if e, ok := b.Lookup(base + i*4096); !ok || e.BTA != i {
			t.Fatalf("entry %d: %+v, %v", i, e, ok)
		}
	}
	if _, ok := b.Lookup(base + 300*4096); ok {
		t.Fatal("a PC sharing a screen slot hit without an entry")
	}
	if err := b.Add(core.BITEntry{PC: base + 7*4096}); err == nil {
		t.Fatal("duplicate PC behind a shared bit accepted")
	}
	if err := b.Realias(base+7*4096, base+4); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(base + 7*4096); ok {
		t.Fatal("realiased entry still hits its old PC")
	}
	if e, ok := b.Lookup(base + 4); !ok || e.BTA != 7 {
		t.Fatalf("realiased entry: %+v, %v", e, ok)
	}
}

// TestFoldsByPCKeepsFetchPC counts folds per BIT entry and checks that
// FoldsByPC reports each under the PC it was fetched from, across
// Realias, LoadBank and Clear, until Reset.
func TestFoldsByPCKeepsFetchPC(t *testing.T) {
	const a, b, moved = 0x400100, 0x400200, 0x400300
	eng := core.NewEngine(core.Config{TrackValidity: false})
	if err := eng.Load([]core.BITEntry{{PC: a, Reg: 8}, {PC: b, Reg: 9}}); err != nil {
		t.Fatal(err)
	}
	fold := func(pc uint32, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, ok := eng.TryFold(pc); !ok {
				t.Fatalf("no fold at 0x%x", pc)
			}
		}
	}
	want := func(w map[uint32]uint64) {
		t.Helper()
		if got := eng.FoldsByPC(); !maps.Equal(got, w) {
			t.Fatalf("FoldsByPC = %v, want %v", got, w)
		}
	}
	want(map[uint32]uint64{})
	fold(a, 2)
	fold(b, 1)
	want(map[uint32]uint64{a: 2, b: 1})
	if err := eng.ActiveBIT().Realias(a, moved); err != nil {
		t.Fatal(err)
	}
	fold(moved, 3)
	want(map[uint32]uint64{a: 2, b: 1, moved: 3})
	if err := eng.Load([]core.BITEntry{{PC: a, Reg: 8}}); err != nil {
		t.Fatal(err)
	}
	fold(a, 1)
	want(map[uint32]uint64{a: 3, b: 1, moved: 3})
	eng.ActiveBIT().Clear()
	want(map[uint32]uint64{a: 3, b: 1, moved: 3})
	eng.Reset()
	want(map[uint32]uint64{})
}
