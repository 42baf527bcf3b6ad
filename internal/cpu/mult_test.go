package cpu

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"asbr/internal/asm"
	"asbr/internal/core"
	"asbr/internal/isa"
	"asbr/internal/mem"
)

// multPrograms exercise mult/multu, which the fused loops play with
// their EX occupancy. Each program names the branch its folded runs put
// in the BIT; squash marks the one whose mispredicts squash a mult in
// ID.
var multPrograms = []struct {
	name, src, fold string
	squash          bool
}{
	{"back-to-back", `
main:	li	t0, 7
	li	t1, -3
	li	t2, 100000
	mult	t0, t1
	multu	t1, t2
	mult	t2, t2
	mflo	s0
	mfhi	s1
	multu	t0, t0
	mult	s0, s1
	mfhi	s2
	mflo	s3
	li	t3, 4
loop:	addiu	t3, t3, -1
	mult	t3, t2
	multu	t3, t1
	nop
	nop
back:	bnez	t3, loop
	mflo	s4
	jr	ra
`, "back", false},
	{"load-feeds-mult", `
main:	li	t0, 12345
	li	t4, 6
	sw	t0, 0(sp)
loop:	lw	t1, 0(sp)
	mult	t1, t0
	mflo	s0
	lw	t2, 0(sp)
	multu	t0, t2
	mfhi	s1
	addiu	t0, t0, 77
	sw	t0, 0(sp)
	addiu	t4, t4, -1
	nop
	nop
	nop
back:	bnez	t4, loop
	jr	ra
`, "back", false},
	{"hilo-after-mult", `
main:	li	t0, 0x10000
	li	t1, 0x30001
	mult	t0, t1
	mfhi	s0
	mflo	s1
	mthi	s1
	mtlo	s0
	multu	t1, t1
	mflo	s2
	mfhi	s3
	mult	s2, s3
	mflo	s4
	jr	ra
`, "", false},
	{"squashed-in-id", `
main:	li	t0, 24
	li	s0, 0
loop:	addiu	t0, t0, -1
	andi	t1, t0, 3
	nop
	nop
	nop
	bnez	t1, skip
	mult	t0, t0
	mflo	t2
	addu	s0, s0, t2
skip:	bnez	t0, loop
	jr	ra
`, "skip", true},
	{"fold-injects-mult", `
main:	li	s0, 30
	li	s1, 3
loop:	addiu	s0, s0, -1
	andi	t1, s0, 1
	nop
	nop
	nop
test:	beqz	t1, even
	mult	s0, s1
	j	next
even:	multu	s0, s0
next:	mflo	t3
	addu	s1, s1, t3
	bnez	s0, loop
	mfhi	s2
	jr	ra
`, "test", false},
}

// multRun is everything observable about one run.
type multRun struct {
	Stats  Stats
	Core   core.Stats
	Regs   [isa.NumRegs]int32
	HI, LO int32
	Output []int32
	Err    SimError
}

// runMult builds a machine from cfg, steps it k cycles, runs it to the
// end and collects the result. A non-empty bit loads a fresh ASBR unit.
func runMult(t *testing.T, p *isa.Program, cfg Config, bit []core.BITEntry, k int) multRun {
	t.Helper()
	var eng *core.Engine
	if bit != nil {
		eng = core.NewEngine(core.DefaultConfig())
		if err := eng.Load(bit); err != nil {
			t.Fatal(err)
		}
		cfg.Fold = eng
	}
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		c.StepWatchdog()
	}
	st, err := c.RunContext(context.Background())
	r := multRun{Stats: st, Regs: c.regs, HI: c.hi, LO: c.lo, Output: c.Output}
	if eng != nil {
		r.Core = eng.Stats()
	}
	var se *SimError
	if errors.As(err, &se) {
		r.Err = *se
	} else if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

// TestFusedMultEquivalence runs directed mult/multu programs on the
// reference, fast and superblock engines, plain and with a branch
// folded, at MultCycles 1, 4 (the default) and 7, with the paper's
// caches and with ideal memory. Every run must agree with the
// reference on cpu.Stats, core.Stats, registers, HI/LO, output and
// error; so must every run cut short by MaxCycles at each cycle of the
// program (which ends some of them inside a mult's occupancy), and
// every run stepped cycle by cycle for a while before RunContext takes
// over (which enters the fused loop with a mult already in EX).
func TestFusedMultEquivalence(t *testing.T) {
	for _, pr := range multPrograms {
		p, err := asm.Assemble(pr.src)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		bits := map[string][]core.BITEntry{"plain": nil}
		if pr.fold != "" {
			bit, err := core.BuildBIT(p, []uint32{p.Symbols[pr.fold]})
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			bits["folded"] = bit
		}
		for leg, bit := range bits {
			for _, mc := range []int{1, 4, 7} {
				for _, caches := range []bool{true, false} {
					t.Run(fmt.Sprintf("%s/%s/mult=%d/caches=%t", pr.name, leg, mc, caches), func(t *testing.T) {
						cfg := Config{MultCycles: mc, Predictor: "bimodal"}
						if caches {
							cfg.ICache, cfg.DCache = mem.DefaultICache(), mem.DefaultDCache()
						}
						full := requireMultEquivalent(t, p, cfg, bit, 0)
						if full.Err.Code != ErrNone {
							t.Fatalf("run failed: %v", &full.Err)
						}
						if mc > 1 && full.Stats.ExStalls == 0 {
							t.Fatal("no EX stalls: the program runs no mult")
						}
						if leg == "folded" && full.Stats.Folded == 0 {
							t.Fatal("the folded leg folded nothing")
						}
						if pr.squash && full.Stats.WrongPath == 0 {
							t.Fatal("no wrong-path word was squashed")
						}
						for n := uint64(1); n < full.Stats.Cycles; n++ {
							cut := cfg
							cut.MaxCycles = n
							if r := requireMultEquivalent(t, p, cut, bit, 0); r.Err.Code != ErrCycleLimit {
								t.Fatalf("MaxCycles=%d: error %v, want cycle-limit", n, &r.Err)
							}
						}
						for k := 1; k <= 40; k++ {
							requireMultEquivalent(t, p, cfg, bit, k)
						}
					})
				}
			}
		}
	}
}

// requireMultEquivalent runs the configuration on all three engines
// and requires them to agree; it returns the reference run.
func requireMultEquivalent(t *testing.T, p *isa.Program, cfg Config, bit []core.BITEntry, k int) multRun {
	t.Helper()
	cfg.Engine = EngineReference
	ref := runMult(t, p, cfg, bit, k)
	for _, e := range []Engine{EngineFast, EngineSuperblock} {
		cfg.Engine = e
		if got := runMult(t, p, cfg, bit, k); !reflect.DeepEqual(ref, got) {
			t.Fatalf("MaxCycles=%d steps=%d: %s differs from reference:\nreference %+v\n%-9s %+v", cfg.MaxCycles, k, e, ref, e, got)
		}
	}
	return ref
}
