package predict

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// predictorGoldenDigest is the sha256 of every Predict-then-Update
// stream of predictorGoldenCases on goldenTrace. A change that only
// speeds up a predictor must leave it as is.
const predictorGoldenDigest = "54be86f126faafbb63b006fed57e70c7a944ec8df58f188e7067487d4acd9ac4"

// goldenSteps is the length of goldenTrace, in dynamic branches.
const goldenSteps = 1 << 15

// goldenTrace returns a seeded dynamic-branch trace built to stress
// table aliasing and history hashing. Its 128 static branches sit 12
// bytes apart, and every fourth one lies 64 KB above an earlier one,
// so the pair shares an entry in any PC-indexed table of up to 16K
// entries. A branch is biased either way, a loop that runs its trip
// count back to back (2 to 11 iterations, or 20 to 59 for every
// sixteenth branch, beyond the short history windows), a function of
// two global-history bits up to 41 branches back, or a coin toss.
func goldenTrace() (pcs []uint32, outs []bool) {
	type branch struct {
		pc          uint32
		kind, param int
	}
	r := rand.New(rand.NewSource(16))
	var br [128]branch
	for i := range br {
		pc := uint32(0x400000 + 12*i)
		if i%4 == 3 {
			pc = br[i-3].pc + 1<<16
		}
		br[i] = branch{pc: pc, kind: r.Intn(4), param: 2 + r.Intn(40)}
		if br[i].kind == 1 {
			br[i].param = 2 + r.Intn(10)
			if i%16 == 5 {
				br[i].param = 20 + r.Intn(40)
			}
		}
	}
	var hist uint64
	emit := func(pc uint32, taken bool) {
		pcs, outs = append(pcs, pc), append(outs, taken)
		hist = hist<<1 | uint64(b2u(taken))
	}
	for len(pcs) < goldenSteps {
		// Half the picks come from a hot set of 16 branches.
		i := r.Intn(len(br))
		if r.Intn(2) == 0 {
			i %= 16
		}
		b := br[i]
		switch b.kind {
		case 0:
			emit(b.pc, (r.Intn(10) != 0) == (b.param%2 == 0))
		case 1:
			for k := 0; k < b.param; k++ {
				emit(b.pc, true)
			}
			emit(b.pc, false)
		case 2:
			emit(b.pc, (hist>>uint(b.param%7)^hist>>uint(b.param))&1 == 1)
		default:
			emit(b.pc, r.Intn(2) == 0)
		}
	}
	return pcs[:goldenSteps], outs[:goldenSteps]
}

// predictorGoldenCases returns every registered family at its
// defaults, then TAGE and TAGE-loop at corner configurations: the
// bounds of the table count, table size, history lengths and tag
// width, and two useful-bit decay periods short enough to fire.
func predictorGoldenCases(t *testing.T) (labels []string, preds []DirectionPredictor) {
	t.Helper()
	for _, f := range Families() {
		u, err := build(f.Name)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		labels, preds = append(labels, f.Name), append(preds, u.Dir)
	}
	corners := []struct {
		label string
		cfg   TAGEConfig
	}{
		{"tables=1", TAGEConfig{Tables: 1}},
		{"tables=16", TAGEConfig{Tables: 16}},
		{"entries=16", TAGEConfig{Entries: 16}},
		{"entries=65536", TAGEConfig{Entries: 65536}},
		{"minhist=1", TAGEConfig{MinHist: 1}},
		{"hist=1..2", TAGEConfig{MinHist: 1, MaxHist: 2}},
		{"tables=16,hist=1..64", TAGEConfig{Tables: 16, MinHist: 1, MaxHist: 64}},
		{"tag=4", TAGEConfig{TagBits: 4}},
		{"tag=15", TAGEConfig{TagBits: 15}},
		{"small", TAGEConfig{Tables: 16, Entries: 16, MinHist: 1, MaxHist: 2, TagBits: 4, DecayPeriod: 512}},
		{"large", TAGEConfig{Tables: 16, Entries: 65536, MinHist: 1, MaxHist: 64, TagBits: 15, DecayPeriod: 4096}},
	}
	for _, c := range corners {
		tg, err := NewTAGE(c.cfg)
		if err != nil {
			t.Fatalf("tage %s: %v", c.label, err)
		}
		tl, err := NewTAGELoop(c.cfg, 64, 3)
		if err != nil {
			t.Fatalf("tageloop %s: %v", c.label, err)
		}
		labels = append(labels, "tage/"+c.label, "tageloop/"+c.label)
		preds = append(preds, tg, tl)
	}
	return labels, preds
}

// TestPredictorGolden pins every predictor's prediction stream bit for
// bit on an aliasing trace.
func TestPredictorGolden(t *testing.T) {
	pcs, outs := goldenTrace()
	labels, preds := predictorGoldenCases(t)
	h := sha256.New()
	packed := make([]byte, goldenSteps/8)
	for i, p := range preds {
		clear(packed)
		for k, pc := range pcs {
			if p.Predict(pc) {
				packed[k/8] |= 1 << (k % 8)
			}
			p.Update(pc, outs[k])
		}
		h.Write([]byte(labels[i] + "\n"))
		h.Write(packed)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != predictorGoldenDigest {
		t.Fatalf("prediction digest over %d predictors = %s, want %s", len(preds), got, predictorGoldenDigest)
	}
}
