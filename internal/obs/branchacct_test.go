package obs

import (
	"testing"

	"asbr/internal/predict"
)

// fakeSet is a shadow set whose members each predict a fixed
// direction; it counts updates.
type fakeSet struct {
	names   []string
	taken   []bool
	updates int
}

func (f *fakeSet) Names() []string               { return f.names }
func (f *fakeSet) Predict(_ uint32, pred []bool) { copy(pred, f.taken) }
func (f *fakeSet) Update(uint32, bool)           { f.updates++ }
func (f *fakeSet) Reset()                        { f.updates = 0 }

func TestBranchAccounting(t *testing.T) {
	set := &fakeSet{names: []string{"nt", "tk"}, taken: []bool{false, true}}
	b := NewBranchAccounting(5, set)
	b.MarkFoldEligible([]uint32{0x100})

	// 0x100: 3 taken (2 folded), 1 not-taken. 0x200: 1 not-taken.
	// 0x300: 1 taken, 1 not-taken.
	b.OnBranch(0x100, true, true)
	b.OnBranch(0x100, true, true)
	b.OnBranch(0x100, true, false)
	b.OnBranch(0x100, false, false)
	b.OnBranch(0x200, false, false)
	b.OnBranch(0x300, true, false)
	b.OnBranch(0x300, false, false)

	stats := b.Stats()
	if len(stats) != 3 || stats[0].PC != 0x100 || stats[1].PC != 0x200 || stats[2].PC != 0x300 {
		t.Fatalf("stats = %+v", stats)
	}
	a := stats[0]
	if a.Execs != 4 || a.Taken != 3 || a.Folded != 2 || !a.FoldEligible {
		t.Fatalf("account = %+v", a)
	}
	if names := b.ShadowNames(); len(names) != 2 || names[0] != "nt" || names[1] != "tk" {
		t.Fatalf("shadow names = %v", names)
	}
	if a.Mispredicts[0] != 3 || a.Mispredicts[1] != 1 {
		t.Fatalf("mispredicts = %v", a.Mispredicts)
	}
	// nt mispredicted all 3 taken outcomes; 2 of those were folded, so
	// folding removed exactly 2 of its mispredictions. tk's single miss
	// was on an unfolded execution.
	if a.MispredictsFolded[0] != 2 || a.MispredictsFolded[1] != 0 {
		t.Fatalf("folded mispredicts = %v", a.MispredictsFolded)
	}
	// Best shadow (tk, 1 miss) times the flush penalty.
	if a.Best() != 1 || a.CycleCost != 5 {
		t.Fatalf("best shadow = %d, cycle cost = %d, want 1 and 5", a.Best(), a.CycleCost)
	}
	if acc := a.Accuracy(1); acc != 0.75 {
		t.Fatalf("accuracy = %v", acc)
	}
	// nt never mispredicted 0x200: the best shadow's cost is 0.
	if c := stats[1]; c.FoldEligible || c.Best() != 0 || c.BestMispredicts() != 0 || c.CycleCost != 0 {
		t.Fatalf("0x200 account = %+v, want not fold-eligible and best shadow nt at cost 0", c)
	}
	// A tie goes to the earlier shadow in replay order.
	if c := stats[2]; c.Best() != 0 || c.CycleCost != 5 {
		t.Fatalf("0x300 account = %+v, want best shadow nt at cost 5", c)
	}
	// Folded outcomes still train the shadows.
	if set.updates != 7 {
		t.Fatalf("shadow updates = %d, want 7", set.updates)
	}

	b.Reset()
	if len(b.Stats()) != 0 || set.updates != 0 {
		t.Fatal("Reset incomplete")
	}
}

// Accounting a branch already seen allocates nothing, mispredicted
// outcomes included: a real predictor's Name formats a string.
func TestBranchAccountingAllocFree(t *testing.T) {
	b := NewBranchAccounting(5, predict.Must(predict.NewZoo("bimodal", "tage", "tageloop")))
	b.OnBranch(0x100, true, false)
	if n := testing.AllocsPerRun(100, func() {
		b.OnBranch(0x100, true, true)
		b.OnBranch(0x100, false, false)
	}); n != 0 {
		t.Fatalf("%.1f allocations per two branches, want 0", n)
	}
}
