package cpu_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"asbr/internal/asm"
	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/isa"
)

// unalignedRun is what the engines must agree on when a program jumps
// to an address that is not word-aligned.
type unalignedRun struct {
	Stats cpu.Stats
	Code  cpu.ErrCode
	PC    uint32
	Cycle uint64
}

// TestEngineUnalignedJumpTarget sends a jr and a jalr to a text
// address that is not word-aligned. Every engine must stop with the
// reference engine's fetch fault, at the same pc and cycle and with
// the same counters, instead of fetching the word below the target.
func TestEngineUnalignedJumpTarget(t *testing.T) {
	const body = `
	nop
	nop
target:	addi	t1, zero, 5
	addi	t2, zero, 7
	jr	ra
`
	for _, tc := range []struct {
		name, jump string
		off        uint32
	}{
		{"jr", "addi t0, t0, 2\n\tjr t0", 2},
		{"jalr", "addi t0, t0, 1\n\tjalr t0", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble("main:\tla t0, target\n\t" + tc.jump + body)
			if err != nil {
				t.Fatal(err)
			}
			want := prog.Symbols["target"] + tc.off
			ref := runUnaligned(t, prog, cpu.EngineReference, nil)
			if ref.Code != cpu.ErrFetchFault || ref.PC != want {
				t.Fatalf("reference: %s at pc=%#x, want fetch-fault at %#x", ref.Code, ref.PC, want)
			}
			for _, e := range []cpu.Engine{cpu.EngineFast, cpu.EngineSuperblock} {
				if got := runUnaligned(t, prog, e, nil); !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s differs from reference:\nreference %+v\n%-9s %+v", e, ref, e, got)
				}
			}
		})
	}
}

// TestEngineUnalignedFold folds at an unaligned fetch pc: a BIT entry
// keyed on target+2 injects the fall-through word, a beq whose target
// depends on the pc it is decoded at. The injected slot's pc, target+6,
// is not word-aligned, so no engine may reuse the predecoded entry of
// the word below it: every engine decodes the beq at target+6, jumps
// to skip+2 and faults there.
func TestEngineUnalignedFold(t *testing.T) {
	prog, err := asm.Assemble(`
main:	addi	t3, zero, 0
	la	t0, target
	addi	t0, t0, 2
	jr	t0
	nop
	nop
target:	addi	t1, zero, 5
	beq	zero, zero, skip
	addi	t2, zero, 7
skip:	jr	ra
`)
	if err != nil {
		t.Fatal(err)
	}
	target := prog.Symbols["target"]
	beq, err := prog.WordAt(target + 4)
	if err != nil {
		t.Fatal(err)
	}
	newEng := func() *core.Engine {
		// t3 is zero, so NE never holds: the fold takes the fall-through.
		e := core.NewEngine(core.DefaultConfig())
		if err := e.Load([]core.BITEntry{{PC: target + 2, BTA: target, BFI: beq, Reg: isa.RegT0 + 3, Cond: isa.CondNE}}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := runUnaligned(t, prog, cpu.EngineReference, newEng())
	if ref.Stats.Folded != 1 || ref.Code != cpu.ErrFetchFault || ref.PC != prog.Symbols["skip"]+2 {
		t.Fatalf("reference: %d folds, %s at pc=%#x; want 1 fold and fetch-fault at skip+2", ref.Stats.Folded, ref.Code, ref.PC)
	}
	for _, e := range []cpu.Engine{cpu.EngineFast, cpu.EngineSuperblock} {
		if got := runUnaligned(t, prog, e, newEng()); !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s differs from reference:\nreference %+v\n%-9s %+v", e, ref, e, got)
		}
	}
}

// runUnaligned runs prog on engine e (with fold as its ASBR unit when
// non-nil) and requires a *SimError.
func runUnaligned(t *testing.T, prog *isa.Program, e cpu.Engine, fold *core.Engine) unalignedRun {
	t.Helper()
	cfg := engCfg(e)
	cfg.MaxCycles = 10_000
	if fold != nil {
		cfg.Fold = fold
	}
	c, err := cpu.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunContext(context.Background())
	var se *cpu.SimError
	if !errors.As(err, &se) {
		t.Fatalf("%s: err = %v after %d cycles, want a *SimError", e, err, st.Cycles)
	}
	return unalignedRun{Stats: st, Code: se.Code, PC: se.PC, Cycle: se.Cycle}
}
