package cc_test

import (
	"testing"

	"asbr/internal/cc"
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
