package corpus

import (
	"slices"
	"testing"

	"asbr/internal/asm"
	"asbr/internal/cc"
	"asbr/internal/sched"
)

// FuzzCorpusGen drives the generator across the seed/knob space: every
// (seed, knobs) pair must generate deterministically and produce a
// program the full toolchain accepts. This is the corpus's foundation —
// if generation is flaky or emits uncompilable MiniC, every manifest
// and differential run built on it is unsound. The compiler's two
// paths must also agree: cc.CompileToProgram, which assembles the
// generated statements directly, must build and schedule to the same
// words as asm.Assemble over cc.Compile's text.
func FuzzCorpusGen(f *testing.F) {
	f.Add(int64(1), 12, 3, 0.5, 0.35, 0.1)
	f.Add(int64(2001), 16, 2, 0.9, 0.9, 0.0)
	f.Add(int64(-7), 4, 1, 0.0, 0.0, 0.5)
	f.Add(int64(1<<40), 64, 6, 1.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, stmts, depth int, taken, foldd, calld float64) {
		knobs := Knobs{Stmts: stmts, LoopDepth: depth, TakenBias: taken, FoldDensity: foldd, CallDensity: calld}
		src, err := Generate(seed, knobs)
		if err != nil {
			t.Skip() // out-of-range knobs are rejected, not generated around
		}
		again, err := Generate(seed, knobs)
		if err != nil {
			t.Fatalf("second generation errored: %v", err)
		}
		if src != again {
			t.Fatalf("seed %d knobs %+v: generation is not deterministic", seed, knobs)
		}
		prog, err := cc.CompileToProgram(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v\n%s", seed, err, src)
		}
		text, err := cc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		viaText, err := asm.Assemble(text)
		if err != nil {
			t.Fatalf("seed %d: compiled text does not assemble: %v", seed, err)
		}
		if diff := programDiff(prog, viaText); diff != "" {
			t.Fatalf("seed %d knobs %+v: CompileToProgram and Assemble(Compile) differ in %s", seed, knobs, diff)
		}
		scheduled, _, err := sched.Schedule(prog)
		if err != nil {
			t.Fatalf("seed %d: generated program does not schedule: %v", seed, err)
		}
		scheduledText, _, err := sched.Schedule(viaText)
		if err != nil {
			t.Fatalf("seed %d: text-path program does not schedule: %v", seed, err)
		}
		if !slices.Equal(scheduled.Text, scheduledText.Text) {
			t.Fatalf("seed %d knobs %+v: the two paths schedule to different words", seed, knobs)
		}
	})
}
