package sched_test

import (
	"testing"

	"asbr/internal/cc"
	"asbr/internal/corpus"
	"asbr/internal/sched"
)

// TestScheduleAllocs bounds the allocations of scheduling one
// generated program of 256 words, 35 with dependence masks, a leader
// slice and working slices reused from block to block. Allocating per
// instruction, as dependence lists or a leader map do, fails the bound.
func TestScheduleAllocs(t *testing.T) {
	src, err := corpus.Generate(1, corpus.Knobs{LoopDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cc.CompileToProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := sched.Schedule(prog); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Errorf("Schedule made %v allocations, want at most 50", allocs)
	}
}
