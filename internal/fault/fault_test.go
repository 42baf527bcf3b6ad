package fault

import (
	"reflect"
	"sync"
	"testing"

	"asbr/internal/asm"
	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/isa"
)

func TestPlanRoundTrip(t *testing.T) {
	cases := []Plan{
		{Kind: KindNone, Rate: 1},
		{Kind: KindBDTFlip, Rate: 1},
		{Kind: KindValiditySkew, Rate: 0.25, Seed: 7},
		{Kind: KindBITAlias, Rate: 1, Seed: -3, Max: 2},
		{Kind: KindStaleBTI, Rate: 0.0625, Max: 10},
	}
	for _, p := range cases {
		got, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("round trip %q: got %+v, want %+v", p.String(), got, p)
		}
	}
	if s := DefaultPlan(KindValiditySkew).String(); s != "validity-skew" {
		t.Fatalf("default plan renders %q, want bare kind name", s)
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"",
		"gamma-ray",
		"bdt-flip:",
		"bdt-flip:rate",
		"bdt-flip:rate=2",
		"bdt-flip:rate=-0.5",
		"bdt-flip:rate=NaN",
		"bdt-flip:seed=abc",
		"bdt-flip:max=-1",
		"bdt-flip:max=1.5",
		"bdt-flip:wavelength=7",
	}
	for _, s := range bad {
		if p, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) = %+v, want error", s, p)
		}
	}
	good := map[string]Plan{
		"none":                     {Kind: KindNone, Rate: 1},
		"validity-skew":            {Kind: KindValiditySkew, Rate: 1},
		"bdt-flip:rate=0.5,seed=9": {Kind: KindBDTFlip, Rate: 0.5, Seed: 9},
		"stale-bti:max=3":          {Kind: KindStaleBTI, Rate: 1, Max: 3},
		"bit-alias:seed=-1,rate=1": {Kind: KindBITAlias, Rate: 1, Seed: -1},
	}
	for s, want := range good {
		got, err := ParsePlan(s)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParsePlan(%q) = %+v, want %+v", s, got, want)
		}
	}
}

func TestKindNames(t *testing.T) {
	for _, k := range Kinds() {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("kind %v: parse(%q) = %v, %v", k, k.String(), back, err)
		}
	}
}

// skewGuest loads a memory flag and branches on it immediately — the
// load is still in flight when the branch is fetched, so the validity
// counter correctly blocks folding. The loop runs two passes, flipping
// the flag between them, so a machine that folds on the stale pass-1
// direction takes the wrong path on pass 2 and produces a different
// accumulator, store and output stream.
const skewGuest = `
main:	la	s0, flag
	li	s2, 0
	li	s3, 2
loop:	lw	t1, 0(s0)
	bnez	t1, taken	# fetched while the lw is unresolved
	addiu	s2, s2, 1
	j	next
taken:	addiu	s2, s2, 100
next:	li	t5, 1
	sw	t5, 0(s0)	# flag = 1 for the second pass
	addiu	s3, s3, -1
	bnez	s3, loop
	sw	s2, 4(s0)
	move	a0, s2
	li	v0, 1
	syscall			# print the accumulator
	jr	ra
	.data
flag:	.word	0, 0
`

// buildSkewPair assembles the guest and returns the program plus the
// BIT entry set holding exactly the flag branch.
func buildSkewPair(t *testing.T) (*isa.Program, []core.BITEntry, uint32) {
	t.Helper()
	p, err := asm.Assemble(skewGuest)
	if err != nil {
		t.Fatal(err)
	}
	// The flag branch is the first conditional branch in the text.
	var branchPC uint32
	for i, w := range p.Text {
		in, derr := isa.Decode(w)
		if derr == nil && in.IsCondBranch() {
			branchPC = p.TextBase + uint32(4*i)
			break
		}
	}
	if branchPC == 0 {
		t.Fatal("no conditional branch found")
	}
	entries, err := core.BuildBIT(p, []uint32{branchPC})
	if err != nil {
		t.Fatal(err)
	}
	return p, entries, branchPC
}

func machineCfg() cpu.Config {
	return cpu.Config{MaxCycles: 1 << 20}
}

// runSkew lockstep-compares a baseline machine against an ASBR machine
// whose unit runs plan.
func runSkew(t *testing.T, plan Plan) (Report, *Injector) {
	t.Helper()
	prog, entries, _ := buildSkewPair(t)
	eng := core.NewEngine(core.Config{BITEntries: len(entries), TrackValidity: true})
	if err := eng.Load(entries); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, eng)
	baseCfg := machineCfg()
	testCfg := machineCfg()
	testCfg.Fold = eng
	rep, err := RunPair(prog, baseCfg, testCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep, inj
}

// TestValiditySkewDetected is the harness's acceptance case: forcing
// the validity counter of an unresolved predicate to zero lets the
// engine fold on a stale direction, and the lockstep checker pins the
// divergence to a nonzero PC.
func TestValiditySkewDetected(t *testing.T) {
	rep, inj := runSkew(t, DefaultPlan(KindValiditySkew))
	if inj.Count() == 0 {
		t.Fatal("injector never fired")
	}
	if !rep.Diverged {
		t.Fatalf("no divergence detected: %s", rep)
	}
	if rep.PC == 0 {
		t.Fatalf("divergent PC not reported: %s", rep)
	}
	if rep.Cycle == 0 {
		t.Fatalf("divergent cycle not reported: %s", rep)
	}
	t.Logf("report: %s", rep)
	for _, ev := range inj.Events() {
		t.Logf("event: %s", ev)
	}
}

// TestCleanRunNoDivergence is the control: the identical machine pair
// with injection disabled (KindNone) must report zero divergence —
// folding with intact validity tracking is architecturally invisible.
func TestCleanRunNoDivergence(t *testing.T) {
	rep, inj := runSkew(t, DefaultPlan(KindNone))
	if inj.Count() != 0 {
		t.Fatalf("none plan injected %d faults", inj.Count())
	}
	if rep.Diverged {
		t.Fatalf("clean run diverged: %s", rep)
	}
	if rep.PC != 0 || rep.Cycle != 0 {
		t.Fatalf("clean run reports nonzero divergence point: %s", rep)
	}
	if rep.Commits == 0 {
		t.Fatal("no commits compared")
	}
	if rep.BaseExit != rep.TestExit {
		t.Fatalf("exit codes differ: %d vs %d", rep.BaseExit, rep.TestExit)
	}
}

// flipGuest folds reliably: the loop predicate is defined well before
// the branch, so the validity counter clears and the engine folds every
// steady-state iteration.
const flipGuest = `
main:	li	t0, 50
	li	t1, 0
loop:	addu	t1, t1, t0
	addiu	t0, t0, -1
	nop
	nop
	nop
	bnez	t0, loop
	move	a0, t1
	li	v0, 1
	syscall
	jr	ra
`

func runFlip(t *testing.T, plan Plan) (Report, []Event) {
	t.Helper()
	p, err := asm.Assemble(flipGuest)
	if err != nil {
		t.Fatal(err)
	}
	pcs := core.FoldableBranches(p)
	if len(pcs) == 0 {
		t.Fatal("no foldable branches")
	}
	entries, err := core.BuildBIT(p, pcs)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.Config{BITEntries: len(entries), TrackValidity: true})
	if err := eng.Load(entries); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, eng)
	testCfg := machineCfg()
	testCfg.Fold = eng
	rep, err := RunPair(p, machineCfg(), testCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep, inj.Events()
}

// TestBDTFlipDetected: a direction-bit strike on a validly folding
// branch sends the folded machine down the wrong path, which the
// checker catches.
func TestBDTFlipDetected(t *testing.T) {
	rep, events := runFlip(t, Plan{Kind: KindBDTFlip, Rate: 1, Max: 1})
	if len(events) != 1 {
		t.Fatalf("events = %d, want exactly the budgeted 1", len(events))
	}
	if !rep.Diverged || rep.PC == 0 {
		t.Fatalf("flip not detected: %s", rep)
	}
}

// TestStaleBTIDetected: nop-ing out a BIT entry's cached instruction
// words makes the folded slot skip the target instruction's work.
func TestStaleBTIDetected(t *testing.T) {
	rep, events := runFlip(t, Plan{Kind: KindStaleBTI, Rate: 1, Max: 1})
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	if !rep.Diverged {
		t.Fatalf("stale BTI not detected: %s", rep)
	}
}

// TestInjectionDeterminism: the same plan over the same program yields
// byte-identical reports and event logs, even when the pairs run
// concurrently — the injector's only entropy source is the plan seed.
// Run with -race to also check the machines share no state.
func TestInjectionDeterminism(t *testing.T) {
	plan := Plan{Kind: KindBDTFlip, Rate: 0.5, Seed: 42}
	const runs = 4
	reports := make([]Report, runs)
	events := make([][]Event, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, evs := runFlip(t, plan)
			reports[i], events[i] = rep, evs
		}(i)
	}
	wg.Wait()
	for i := 1; i < runs; i++ {
		if reports[i].String() != reports[0].String() {
			t.Fatalf("run %d report differs:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
		if !reflect.DeepEqual(events[i], events[0]) {
			t.Fatalf("run %d event log differs: %v vs %v", i, events[i], events[0])
		}
	}
	if len(events[0]) == 0 {
		t.Fatal("rate-0.5 plan never injected")
	}
}

// TestMaxBudget: the max parameter caps the number of injections. The
// skew guest offers one opportunity per loop pass (two total).
func TestMaxBudget(t *testing.T) {
	_, unlimited := runSkew(t, Plan{Kind: KindValiditySkew, Rate: 1})
	if unlimited.Count() < 2 {
		t.Fatalf("unlimited plan injected %d, want 2 opportunities", unlimited.Count())
	}
	_, capped := runSkew(t, Plan{Kind: KindValiditySkew, Rate: 1, Max: 1})
	if capped.Count() != 1 {
		t.Fatalf("capped events = %d, want 1", capped.Count())
	}
}
