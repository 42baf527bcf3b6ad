package cc_test

import (
	"testing"

	"asbr/internal/cc"
	"asbr/internal/corpus"
	"asbr/internal/workload"
)

// TestLexAllAllocs checks that lexing allocates the token slice and
// nothing per token.
func TestLexAllAllocs(t *testing.T) {
	src, err := workload.Source(workload.ADPCMEncode)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := cc.LexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := cc.LexAll(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("lexing %d tokens made %v allocations, want at most 2", len(toks), allocs)
	}
}

// TestCompileToProgramAllocs bounds the allocations of compiling and
// assembling one generated program of 238 assembly lines, 473 on the
// statement path. Formatting each instruction, or printing the text
// and parsing it back, adds at least one per line and fails the bound.
func TestCompileToProgramAllocs(t *testing.T) {
	src, err := corpus.Generate(1, corpus.Knobs{LoopDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := cc.CompileToProgram(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 600 {
		t.Errorf("CompileToProgram made %v allocations, want at most 600", allocs)
	}
}
