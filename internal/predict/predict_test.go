package predict

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNotTakenTaken(t *testing.T) {
	var nt NotTaken
	var tk Taken
	for _, pc := range []uint32{0, 4, 0x400100} {
		if nt.Predict(pc) {
			t.Error("NotTaken predicted taken")
		}
		if !tk.Predict(pc) {
			t.Error("Taken predicted not-taken")
		}
	}
	nt.Update(0, true) // no-ops must not panic
	tk.Update(0, false)
	nt.Reset()
	tk.Reset()
	if nt.Name() != "not taken" || tk.Name() != "taken" {
		t.Errorf("names: %q %q", nt.Name(), tk.Name())
	}
}

// Property: the 2-bit counter saturates at [0,3] and flips prediction
// only after two consecutive mispredictions from a saturated state.
func TestCounterSaturation(t *testing.T) {
	c := counter2(0)
	for i := 0; i < 10; i++ {
		c = c.train(false)
	}
	if c != 0 {
		t.Fatalf("counter under-saturated to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.train(true)
	}
	if c != 3 {
		t.Fatalf("counter over-saturated to %d", c)
	}
	c = c.train(false)
	if !c.taken() {
		t.Fatal("single not-taken from saturated-taken must not flip prediction")
	}
	c = c.train(false)
	if c.taken() {
		t.Fatal("two not-takens from saturated-taken must flip prediction")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := Must(NewBimodal(2048))
	pc := uint32(0x400020)
	for i := 0; i < 4; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("bimodal failed to learn always-taken branch")
	}
	// Another PC mapping to a different entry is unaffected.
	if b.Predict(pc + 4) {
		t.Fatal("unrelated entry polluted")
	}
}

func TestBimodalAliasing(t *testing.T) {
	b := Must(NewBimodal(4)) // tiny table: pc and pc+16 alias
	pcA, pcB := uint32(0x1000), uint32(0x1010)
	for i := 0; i < 4; i++ {
		b.Update(pcA, true)
	}
	if !b.Predict(pcB) {
		t.Fatal("aliased entries must share state in a 4-entry table")
	}
}

func TestBimodalBadSize(t *testing.T) {
	if _, err := NewBimodal(100); err == nil {
		t.Fatal("expected error for non-power-of-two size")
	}
	if _, err := NewGShare(11, 100); err == nil {
		t.Fatal("gshare: expected error for non-power-of-two entries")
	}
	if _, err := NewGShare(0, 1024); err == nil {
		t.Fatal("gshare: expected error for zero history bits")
	}
	if _, err := NewBTB(100); err == nil {
		t.Fatal("btb: expected error for non-power-of-two entries")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Must must panic on a constructor error")
		}
	}()
	Must(NewBimodal(100))
}

func TestGShareUsesHistory(t *testing.T) {
	g := Must(NewGShare(4, 1024))
	pc := uint32(0x400000)
	// Alternating pattern TNTN... is unlearnable by bimodal but
	// learnable by gshare once history separates the contexts.
	b := Must(NewBimodal(1024))
	correctG, correctB := 0, 0
	taken := false
	for i := 0; i < 2000; i++ {
		taken = !taken
		if g.Predict(pc) == taken {
			correctG++
		}
		if b.Predict(pc) == taken {
			correctB++
		}
		g.Update(pc, taken)
		b.Update(pc, taken)
	}
	if correctG < 1900 {
		t.Errorf("gshare learned alternation at %d/2000", correctG)
	}
	if correctB > 1200 {
		t.Errorf("bimodal unexpectedly learned alternation at %d/2000", correctB)
	}
}

func TestGShareCorrelation(t *testing.T) {
	// Branch B's outcome equals branch A's last outcome: global
	// history captures it (the paper's Figure 1 B1->B4 correlation).
	g := Must(NewGShare(8, 2048))
	pcA, pcB := uint32(0x400100), uint32(0x400200)
	r := rand.New(rand.NewSource(11))
	correctB, seen := 0, 0
	var lastA bool
	for i := 0; i < 5000; i++ {
		a := r.Intn(2) == 0
		g.Update(pcA, a)
		lastA = a
		if i > 1000 {
			seen++
			if g.Predict(pcB) == lastA {
				correctB++
			}
		}
		g.Update(pcB, lastA)
	}
	if acc := float64(correctB) / float64(seen); acc < 0.9 {
		t.Errorf("gshare correlation accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestResetRestoresPowerOn(t *testing.T) {
	preds := []DirectionPredictor{Must(NewBimodal(64)), Must(NewGShare(6, 64))}
	for _, spec := range []string{"tage", "loop"} {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, Must(s.Build()).Dir)
	}
	for _, p := range preds {
		pc := uint32(0x500000)
		before := p.Predict(pc)
		for i := 0; i < 8; i++ {
			p.Update(pc, !before)
		}
		if p.Predict(pc) == before {
			t.Fatalf("%s: 8 opposite updates left the power-on prediction", p.Name())
		}
		p.Reset()
		if p.Predict(pc) != before {
			t.Errorf("%s: Reset did not restore power-on prediction", p.Name())
		}
	}
}

func TestBTB(t *testing.T) {
	b := Must(NewBTB(16))
	if _, ok := b.Lookup(0x400000); ok {
		t.Fatal("empty BTB hit")
	}
	b.Insert(0x400000, 0x400100)
	tgt, ok := b.Lookup(0x400000)
	if !ok || tgt != 0x400100 {
		t.Fatalf("lookup = 0x%x,%v", tgt, ok)
	}
	// Aliasing PC (same index, different tag) must miss.
	alias := uint32(0x400000 + 16*4)
	if _, ok := b.Lookup(alias); ok {
		t.Fatal("tag mismatch should miss")
	}
	// Inserting the alias evicts the original.
	b.Insert(alias, 0x400200)
	if _, ok := b.Lookup(0x400000); ok {
		t.Fatal("evicted entry still hits")
	}
	if b.HitRate() <= 0 || b.HitRate() >= 1 {
		t.Errorf("hit rate = %v", b.HitRate())
	}
	b.Reset()
	if _, ok := b.Lookup(alias); ok {
		t.Fatal("Reset left entries")
	}
	// Tags are exact: pc 0 misses an empty slot, and unaligned pcs of
	// the same index miss an entry they do not own.
	if _, ok := b.Lookup(0); ok {
		t.Fatal("empty slot hit for pc 0")
	}
	b.Insert(0x400000, 0x400100)
	for _, pc := range []uint32{0x400001, 0x400002, 0x400003} {
		if _, ok := b.Lookup(pc); ok {
			t.Fatalf("pc 0x%x hit the entry of 0x400000", pc)
		}
	}
}

func TestUnitRedirectNeedsBTBHit(t *testing.T) {
	u := NewUnit(Taken{}, Must(NewBTB(16)))
	pc, tgt := uint32(0x400000), uint32(0x400800)
	taken, _, redirect := u.PredictFetch(pc)
	if !taken || redirect {
		t.Fatal("taken prediction without BTB entry must not redirect")
	}
	u.Resolve(pc, true, tgt)
	taken, got, redirect := u.PredictFetch(pc)
	if !taken || !redirect || got != tgt {
		t.Fatalf("after resolve: %v 0x%x %v", taken, got, redirect)
	}
}

func TestUnitNoBTB(t *testing.T) {
	u := BaselineNotTaken()
	taken, _, redirect := u.PredictFetch(0x400000)
	if taken || redirect {
		t.Fatal("not-taken unit must never redirect")
	}
	u.Resolve(0x400000, true, 0x400100) // must not panic with nil BTB
	if u.Name() != "not taken" {
		t.Errorf("name = %q", u.Name())
	}
}

func TestUnitNotTakenResolveNoBTBInsert(t *testing.T) {
	u := NewUnit(Must(NewBimodal(64)), Must(NewBTB(16)))
	u.Resolve(0x400000, false, 0x400100)
	if _, ok := u.BTB.Lookup(0x400000); ok {
		t.Fatal("not-taken resolve must not insert into BTB")
	}
}

func TestBaselineConfigs(t *testing.T) {
	if BaselineBimodal().BTB.Entries() != 2048 {
		t.Error("baseline bimodal BTB must have 2048 entries")
	}
	if BaselineGShare().Dir.Name() != "gshare-11/2048" {
		t.Errorf("gshare baseline = %q", BaselineGShare().Dir.Name())
	}
	if AuxBimodal512().BTB.Entries() != 512 || AuxBimodal256().BTB.Entries() != 512 {
		t.Error("aux BTBs must be quarter-size (512)")
	}
	if AuxBimodal256().Dir.Name() != "bimodal-256" {
		t.Errorf("aux-256 = %q", AuxBimodal256().Dir.Name())
	}
}

// Property: for any training sequence, a bimodal predictor's internal
// counters remain in [0,3] (no wraparound), observable via prediction
// stability: after 2 consistent updates the prediction matches them.
func TestBimodalConvergence(t *testing.T) {
	f := func(pc uint32, outcomes []bool) bool {
		b := Must(NewBimodal(128))
		for _, o := range outcomes {
			b.Update(pc, o)
		}
		b.Update(pc, true)
		b.Update(pc, true)
		if !b.Predict(pc) {
			return false
		}
		b.Update(pc, false)
		b.Update(pc, false)
		return !b.Predict(pc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: gshare history register stays within its configured width;
// verified by checking that predictions depend only on the last k
// outcomes (two predictors fed identical last-k streams agree).
func TestGShareHistoryWidth(t *testing.T) {
	k := 5
	mk := func(prefix []bool) *GShare {
		g := Must(NewGShare(k, 64))
		pc := uint32(0x40)
		for _, o := range prefix {
			g.Update(pc, o)
		}
		return g
	}
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		// Two different long prefixes with identical final k outcomes
		// leave identical history registers.
		tail := make([]bool, k)
		for i := range tail {
			tail[i] = r.Intn(2) == 0
		}
		p1 := append(randBools(r, 30), tail...)
		p2 := append(randBools(r, 17), tail...)
		g1, g2 := mk(p1), mk(p2)
		if g1.history != g2.history {
			t.Fatalf("history differs: %b vs %b", g1.history, g2.history)
		}
	}
}

func randBools(r *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Intn(2) == 0
	}
	return out
}
