package predict

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// fold is the direct form of a folded history and the reference for
// TAGE's shift registers: the low length bits of h, xor-folded into
// width-bit chunks.
func fold(h uint64, length, width int) uint32 {
	if length < 64 {
		h &= 1<<length - 1
	}
	var f uint32
	for ; length > 0; length -= width {
		f ^= uint32(h) & (1<<width - 1)
		h >>= width
	}
	return f
}

// fuzzStream returns n seeded bytes for FuzzTAGEFolds' seed corpus.
func fuzzStream(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// FuzzTAGEFolds draws a TAGE configuration within the tage family's
// bounds and a branch stream. After every Update each bank's folded
// histories must equal fold of the global history; Predict must be
// read-only, so a twin that is never probed predicts the same and ends
// in the same state; and Reset must restore the power-on state.
//
// A stream byte is one branch: bits 0-5 pick one of 64 PCs, bit 7 is
// the outcome, and bit 6 adds an extra probe of another PC.
func FuzzTAGEFolds(f *testing.F) {
	f.Add(uint8(3), uint8(6), uint8(62), uint8(3), uint8(4), uint64(1), uint16(0), fuzzStream(1, 300))
	f.Add(uint8(15), uint8(0), uint8(0), uint8(0), uint8(0), uint64(7), uint16(33), fuzzStream(2, 200))
	f.Add(uint8(0), uint8(12), uint8(62), uint8(0), uint8(11), uint64(3), uint16(5), fuzzStream(3, 400))
	f.Add(uint8(6), uint8(2), uint8(35), uint8(2), uint8(7), uint64(9), uint16(100), fuzzStream(4, 300))
	f.Fuzz(func(t *testing.T, tables, logEntries, maxHist, minHist, tagBits uint8, seed uint64, decay uint16, stream []byte) {
		cfg := TAGEConfig{
			Tables:      1 + int(tables)%16,
			Entries:     1 << (4 + int(logEntries)%13),
			MaxHist:     2 + int(maxHist)%63,
			TagBits:     4 + int(tagBits)%12,
			Seed:        seed,
			DecayPeriod: uint64(decay),
		}
		cfg.MinHist = 1 + int(minHist)%cfg.MaxHist
		a, err := NewTAGE(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		b := Must(NewTAGE(cfg))
		idxBits := bits.TrailingZeros(uint(cfg.Entries))
		for i, c := range stream {
			pc := 0x400000 + uint32(c&0x3f)<<2
			if c&0x40 != 0 {
				a.Predict(pc ^ 0x1000)
			}
			if pa, pb := a.Predict(pc), b.Predict(pc); pa != pb {
				t.Fatalf("%+v: step %d: probed twin predicts %t, unprobed %t", cfg, i, pa, pb)
			}
			a.Update(pc, c&0x80 != 0)
			b.Update(pc, c&0x80 != 0)
			for k := range a.banks {
				bk := &a.banks[k]
				for _, r := range []struct {
					name  string
					got   uint32
					width int
				}{{"idx", bk.idx.val, idxBits}, {"tag", bk.tag.val, cfg.TagBits}, {"tag1", bk.tag1.val, cfg.TagBits - 1}} {
					if want := fold(a.hist, bk.length, r.width); r.got != want {
						t.Fatalf("%+v: step %d: bank %d (length %d) %s fold = %#x, want %#x", cfg, i, k, bk.length, r.name, r.got, want)
					}
				}
			}
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: probed TAGE ends in a different state from its unprobed twin", cfg)
		}
		a.Reset()
		if !reflect.DeepEqual(a, Must(NewTAGE(cfg))) {
			t.Fatalf("%+v: Reset does not restore the power-on state", cfg)
		}
	})
}

// A warmed-up TAGE and TAGE-loop predict and train without allocating,
// mispredictions and allocations of tagged entries included.
func TestTAGEAllocFree(t *testing.T) {
	pcs, outs := goldenTrace()
	cfg := TAGEConfig{Tables: 16, Entries: 256, MinHist: 1, MaxHist: 64}
	for _, p := range []DirectionPredictor{Must(NewTAGE(TAGEConfig{})), Must(NewTAGE(cfg)), Must(NewTAGELoop(TAGEConfig{}, 64, 3))} {
		for k, pc := range pcs {
			p.Predict(pc)
			p.Update(pc, outs[k])
		}
		k := 0
		if n := testing.AllocsPerRun(50, func() {
			for end := k + 256; k < end; k++ {
				pc := pcs[k%len(pcs)]
				p.Predict(pc)
				p.Update(pc, outs[k%len(pcs)])
			}
		}); n != 0 {
			t.Errorf("%s: %.1f allocations per 256 branches, want 0", p.Name(), n)
		}
	}
}

func TestTAGEGeometricHistoryLengths(t *testing.T) {
	tg := Must(NewTAGE(TAGEConfig{Tables: 4, Entries: 64, MaxHist: 64}))
	ls := tg.HistoryLengths()
	if len(ls) != 4 || ls[0] != 4 || ls[len(ls)-1] != 64 {
		t.Fatalf("history lengths = %v, want 4 .. 64", ls)
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatalf("history lengths not strictly increasing: %v", ls)
		}
	}
	if one := Must(NewTAGE(TAGEConfig{Tables: 1, Entries: 64, MaxHist: 32})).HistoryLengths(); one[0] != 32 {
		t.Fatalf("single-table length = %v, want [32]", one)
	}
}

// TAGE must learn a history-dependent pattern that defeats bimodal:
// branch outcome = outcome of 8 branches ago.
func TestTAGELearnsLongCorrelation(t *testing.T) {
	tg := Must(NewTAGE(TAGEConfig{Tables: 4, Entries: 256, MaxHist: 32}))
	b := Must(NewBimodal(2048))
	r := rand.New(rand.NewSource(7))
	var window []bool
	correctT, correctB, seen := 0, 0, 0
	pc := uint32(0x400100)
	for i := 0; i < 8000; i++ {
		var taken bool
		if len(window) < 8 {
			taken = r.Intn(2) == 0
		} else {
			taken = window[len(window)-8]
		}
		if i > 4000 {
			seen++
			if tg.Predict(pc) == taken {
				correctT++
			}
			if b.Predict(pc) == taken {
				correctB++
			}
		}
		tg.Update(pc, taken)
		b.Update(pc, taken)
		window = append(window, taken)
	}
	accT := float64(correctT) / float64(seen)
	accB := float64(correctB) / float64(seen)
	if accT < 0.9 {
		t.Errorf("tage accuracy = %.3f, want >= 0.9", accT)
	}
	if accB > 0.75 {
		t.Errorf("bimodal unexpectedly learned the correlation (%.3f)", accB)
	}
}

// Mispredictions must allocate tagged entries: after training a
// history-dependent branch, the provider must be a tagged bank, not
// the base bimodal.
func TestTAGEAllocatesTaggedEntries(t *testing.T) {
	tg := Must(NewTAGE(TAGEConfig{Tables: 4, Entries: 256, MaxHist: 16}))
	pc := uint32(0x400200)
	taken := false
	for i := 0; i < 2000; i++ {
		taken = !taken // alternation: base bimodal mispredicts half the time
		tg.Update(pc, taken)
	}
	provider, _, _, _ := tg.lookup(pc)
	if provider < 0 {
		t.Fatal("no tagged entry allocated after 2000 mispredicting updates")
	}
	allocated := 0
	for i := range tg.banks {
		for j := range tg.banks[i].entries {
			if tg.banks[i].entries[j] != (tageEntry{}) {
				allocated++
			}
		}
	}
	if allocated == 0 {
		t.Fatal("no bank entries written")
	}
}

// The periodic decay must halve useful bits so stale entries become
// reclaimable.
func TestTAGEUsefulBitDecay(t *testing.T) {
	tg := Must(NewTAGE(TAGEConfig{Tables: 2, Entries: 64, MaxHist: 8, DecayPeriod: 4}))
	// Plant a maximally-useful entry out of the update path.
	tg.banks[0].entries[63].u = tageUMax
	pc := uint32(0x400000) // indexes low entries with empty history
	for i := 0; i < 16; i++ {
		tg.Update(pc, i%2 == 0)
	}
	if u := tg.banks[0].entries[63].u; u != 0 {
		t.Fatalf("u = %d after 4 decay periods, want 0", u)
	}
}

// Same seed => bit-identical prediction streams, across fresh
// construction and across Reset.
func TestTAGEResetDeterminism(t *testing.T) {
	mk := func() DirectionPredictor {
		return Must(NewTAGE(TAGEConfig{Tables: 4, Entries: 128, MaxHist: 32, Seed: 42}))
	}
	run := func(p DirectionPredictor) []bool {
		r := rand.New(rand.NewSource(99))
		out := make([]bool, 0, 4000)
		for i := 0; i < 4000; i++ {
			pc := uint32(0x400000 + 4*r.Intn(200))
			out = append(out, p.Predict(pc))
			p.Update(pc, r.Intn(3) == 0)
		}
		return out
	}
	a, b := mk(), mk()
	pa, pb := run(a), run(b)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("fresh instances diverged at step %d", i)
		}
	}
	a.Reset()
	for i, p := range run(a) {
		if p != pa[i] {
			t.Fatalf("Reset rerun diverged at step %d", i)
		}
	}
}

// A predictor's Predict must be read-only: probing it any number of
// times between updates must not change later predictions. The
// superblock engine relies on this (it may re-probe at fetch).
func TestZooPredictIsReadOnly(t *testing.T) {
	for _, spec := range []string{"tage", "loop", "tageloop", "gshare", "bimodal"} {
		a, b := Must(build(spec)).Dir, Must(build(spec)).Dir
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 3000; i++ {
			pc := uint32(0x400000 + 4*r.Intn(64))
			taken := r.Intn(2) == 0
			pa, pb := a.Predict(pc), b.Predict(pc)
			if pa != pb {
				t.Fatalf("%s: diverged at step %d", spec, i)
			}
			for k := 0; k < i%4; k++ { // extra probes on a only
				a.Predict(pc + uint32(4*k))
			}
			a.Update(pc, taken)
			b.Update(pc, taken)
		}
	}
}

// The loop predictor must nail a fixed-trip loop exactly, including the
// exit, once confidence is established.
func TestLoopLearnsTripCount(t *testing.T) {
	l := Must(NewLoop(64, 3, 64))
	pc := uint32(0x400300)
	const trip = 7
	miss := 0
	for period := 0; period < 40; period++ {
		for i := 0; i <= trip; i++ {
			taken := i < trip // body taken trip times, then the exit
			if period >= 10 && l.Predict(pc) != taken {
				miss++
			}
			l.Update(pc, taken)
		}
	}
	if miss != 0 {
		t.Fatalf("%d mispredictions after confidence established", miss)
	}
}

// The polarity must flip when the first observed outcome was the exit
// direction (not-taken body loops).
func TestLoopPolarityFlip(t *testing.T) {
	l := Must(NewLoop(64, 2, 64))
	pc := uint32(0x400400)
	const trip = 5
	miss := 0
	// Start mid-loop: first outcome seen is the exit (taken).
	l.Update(pc, true)
	for period := 0; period < 30; period++ {
		for i := 0; i <= trip; i++ {
			taken := i >= trip // not-taken body, taken exit
			if period >= 10 && l.Predict(pc) != taken {
				miss++
			}
			l.Update(pc, taken)
		}
	}
	if miss != 0 {
		t.Fatalf("%d mispredictions on inverted-polarity loop", miss)
	}
}

// A long fixed trip count defeats TAGE's history window but not the
// loop table: the composite must beat bare TAGE on it.
func TestTAGELoopBeatsTAGEOnLongTrips(t *testing.T) {
	cfg := TAGEConfig{Tables: 4, Entries: 256, MaxHist: 16}
	tl := Must(NewTAGELoop(cfg, 64, 3))
	tg := Must(NewTAGE(cfg))
	pc := uint32(0x400500)
	const trip = 40 // far beyond MaxHist=16
	missTL, missTG := 0, 0
	for period := 0; period < 60; period++ {
		for i := 0; i <= trip; i++ {
			taken := i < trip
			if period >= 20 {
				if tl.Predict(pc) != taken {
					missTL++
				}
				if tg.Predict(pc) != taken {
					missTG++
				}
			}
			tl.Update(pc, taken)
			tg.Update(pc, taken)
		}
	}
	if missTL != 0 {
		t.Errorf("tageloop missed %d on a fixed 40-trip loop", missTL)
	}
	if missTG == 0 {
		t.Error("bare TAGE unexpectedly perfect on a trip count beyond its history")
	}
}

func TestZooResetRestoresPowerOn(t *testing.T) {
	for _, spec := range []string{"tage", "loop", "tageloop"} {
		p := Must(build(spec)).Dir
		pc := uint32(0x500000)
		before := p.Predict(pc)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			p.Update(uint32(0x500000+4*r.Intn(32)), r.Intn(2) == 0)
		}
		p.Reset()
		if p.Predict(pc) != before {
			t.Errorf("%s: Reset did not restore power-on prediction", spec)
		}
	}
}

func TestTAGEBadConfig(t *testing.T) {
	if _, err := NewTAGE(TAGEConfig{Entries: 100}); err == nil {
		t.Error("non-power-of-two entries accepted")
	}
	if _, err := NewTAGE(TAGEConfig{Entries: 1}); err == nil {
		t.Error("one-entry tables accepted: their index width is 0")
	}
	if _, err := NewTAGE(TAGEConfig{MaxHist: 99}); err == nil {
		t.Error("over-long history accepted")
	}
	if _, err := NewLoop(100, 3, 64); err == nil {
		t.Error("non-power-of-two loop entries accepted")
	}
	if _, err := NewLoop(64, 99, 64); err == nil {
		t.Error("out-of-range confidence accepted")
	}
}
