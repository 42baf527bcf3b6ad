package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"asbr/internal/isa"
)

// Engine-level validity-counter tests: the BDT state machine is
// covered in asbr_test.go; these check that the counter actually gates
// TryFold — a BIT hit with an in-flight producer must fall back to the
// auxiliary predictor, and a delivery must re-arm the fold.

func foldEngine(t *testing.T, cfg Config, reg isa.Reg, cond isa.Cond) *Engine {
	t.Helper()
	eng := NewEngine(cfg)
	err := eng.Load([]BITEntry{{
		PC:   0x100,
		BTA:  0x200,
		BTI:  0x11111111,
		BFI:  0x22222222,
		Reg:  reg,
		Cond: cond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestTryFoldSuppressedWhileInFlight(t *testing.T) {
	r := isa.Reg(7)
	eng := foldEngine(t, DefaultConfig(), r, isa.CondNE)

	// Unknown register: BIT hit, no fold, one fallback.
	if _, ok := eng.TryFold(0x100); ok {
		t.Fatal("folded with no delivered value")
	}
	if st := eng.Stats(); st.Hits != 1 || st.Fallbacks != 1 || st.Folds != 0 {
		t.Fatalf("stats after unknown-register hit: %+v", st)
	}

	// Delivery arms the predicate.
	eng.OnValue(r, 5)
	f, ok := eng.TryFold(0x100)
	if !ok || !f.Taken {
		t.Fatalf("armed predicate (r=5, !=0) must fold taken, got %+v ok=%v", f, ok)
	}
	if f.Word != 0x11111111 || f.PC != 0x200 || f.Next != 0x204 {
		t.Fatalf("taken fold wired wrong: %+v", f)
	}

	// An in-flight producer suppresses folding again...
	eng.OnIssue(r)
	if eng.BDTState().Counter(r) != 1 {
		t.Fatalf("counter = %d, want 1", eng.BDTState().Counter(r))
	}
	if _, ok := eng.TryFold(0x100); ok {
		t.Fatal("folded while the producer was in flight")
	}
	// ...even if more producers pile up and one delivers.
	eng.OnIssue(r)
	eng.OnValue(r, 1)
	if _, ok := eng.TryFold(0x100); ok {
		t.Fatal("folded with one of two producers still in flight")
	}

	// The last delivery returns the counter to 0 and re-enables the
	// fold, with the direction of the latest value.
	eng.OnValue(r, 0)
	f, ok = eng.TryFold(0x100)
	if !ok || f.Taken {
		t.Fatalf("r=0 under !=0 must fold not-taken, got %+v ok=%v", f, ok)
	}
	if f.Word != 0x22222222 || f.PC != 0x104 || f.Next != 0x108 {
		t.Fatalf("not-taken fold wired wrong: %+v", f)
	}
	st := eng.Stats()
	if st.Folds != 2 || st.FoldsTaken != 1 || st.Fallbacks != 3 {
		t.Fatalf("final stats: %+v", st)
	}
}

func TestTryFoldDirectionTracksLatestValue(t *testing.T) {
	r := isa.Reg(3)
	eng := foldEngine(t, DefaultConfig(), r, isa.CondLE)
	for _, tc := range []struct {
		v     int32
		taken bool
	}{{-4, true}, {0, true}, {9, false}, {-1, true}} {
		eng.OnIssue(r)
		eng.OnValue(r, tc.v)
		f, ok := eng.TryFold(0x100)
		if !ok || f.Taken != tc.taken {
			t.Fatalf("v=%d: fold=%+v ok=%v, want taken=%v", tc.v, f, ok, tc.taken)
		}
	}
}

func TestTryFoldUnsafeModeIgnoresCounter(t *testing.T) {
	r := isa.Reg(4)
	eng := foldEngine(t, Config{TrackValidity: false}, r, isa.CondGT)
	eng.OnValue(r, 2)
	eng.OnIssue(r) // stale from here on
	f, ok := eng.TryFold(0x100)
	if !ok || !f.Taken {
		t.Fatalf("unsafe mode must fold on the stale value, got %+v ok=%v", f, ok)
	}
	if st := eng.Stats(); st.Fallbacks != 0 {
		t.Fatalf("unsafe mode recorded fallbacks: %+v", st)
	}
}

// bdtGolden is the sha256 of every Valid, Holds and Counter read of
// TestBDTGolden's stream. It pins the BDT's observable semantics, which
// the engine-equivalence suite cannot see: every engine shares this
// one table.
const bdtGolden = "f7ce1d8ea631b05360e4c698def3b1ea76b1d0c9f9941f3b81abf76f0eeff39e"

// TestBDTGolden drives one BDT through a seeded stream of OnIssue,
// OnValue, FlipDir, SetCounter, SetKnown and Reset calls and hashes,
// after every call, Valid, Counter and every Holds of all 32
// registers. The stream begins with the cases a change of storage
// could get wrong: a register that never received a value reads "no
// condition holds" even when SetKnown marks it known or FlipDir flips
// one of its bits, the zero register is never counted, and a delivery
// at count 0 leaves the count at 0.
func TestBDTGolden(t *testing.T) {
	var d BDT
	h := sha256.New()
	var buf [4]byte
	read := func() {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			binary.LittleEndian.PutUint32(buf[:], uint32(d.Counter(r)))
			h.Write(buf[:])
			var bits byte
			if d.Valid(r) {
				bits = 1 << 7
			}
			for c := isa.Cond(0); c < isa.NumConds; c++ {
				if d.Holds(r, c) {
					bits |= 1 << c
				}
			}
			h.Write([]byte{bits})
		}
	}
	noneHold := func(r isa.Reg) bool {
		for c := isa.Cond(0); c < isa.NumConds; c++ {
			if d.Holds(r, c) {
				return false
			}
		}
		return true
	}

	// A never-delivered register: known but holding no condition, and
	// a flipped bit is the only one that holds.
	read()
	d.SetKnown(4, true)
	read()
	if !d.Valid(4) || !noneHold(4) {
		t.Fatalf("never-delivered known register: valid=%v, a condition holds", d.Valid(4))
	}
	d.FlipDir(6, isa.CondGT)
	read()
	if !d.Holds(6, isa.CondGT) || d.Holds(6, isa.CondEQ) || d.Valid(6) {
		t.Fatal("a flipped bit of a never-delivered register is not the only one set")
	}
	// The zero register is never counted and never becomes known.
	d.OnIssue(isa.RegZero)
	d.SetCounter(isa.RegZero, 3)
	d.SetKnown(isa.RegZero, true)
	d.OnValue(isa.RegZero, -1)
	read()
	if d.Counter(isa.RegZero) != 0 || d.Valid(isa.RegZero) || !noneHold(isa.RegZero) {
		t.Fatal("the zero register was counted")
	}
	// A delivery at count 0 leaves the count at 0.
	d.OnValue(9, 0)
	d.OnValue(9, 5)
	read()
	if d.Counter(9) != 0 || !d.Valid(9) || !d.Holds(9, isa.CondGT) {
		t.Fatalf("delivery at count 0: counter %d", d.Counter(9))
	}
	// A delivery clears a flipped bit.
	d.FlipDir(9, isa.CondEQ)
	read()
	d.OnValue(9, 5)
	read()
	if d.Holds(9, isa.CondEQ) {
		t.Fatal("a delivery kept a flipped bit")
	}

	rng := rand.New(rand.NewSource(22))
	vals := []int32{0, 1, -1, 7, -7, math.MaxInt32, math.MinInt32}
	value := func() int32 {
		if rng.Intn(2) == 0 {
			return vals[rng.Intn(len(vals))]
		}
		return int32(rng.Uint32())
	}
	for i := 0; i < 20000; i++ {
		// Most calls land on a few registers, so counters climb.
		r := isa.Reg(rng.Intn(isa.NumRegs))
		if rng.Intn(4) != 0 {
			r = isa.Reg(rng.Intn(4))
		}
		switch op := rng.Intn(100); {
		case op < 35:
			d.OnIssue(r)
		case op < 70:
			d.OnValue(r, value())
		case op < 80:
			d.FlipDir(r, isa.Cond(rng.Intn(int(isa.NumConds))))
		case op < 88:
			d.SetCounter(r, int32(rng.Intn(6)-2))
		case op < 99:
			d.SetKnown(r, rng.Intn(2) == 0)
		default:
			d.Reset()
		}
		read()
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != bdtGolden {
		t.Errorf("BDT digest %s, want %s", got, bdtGolden)
	}
}
