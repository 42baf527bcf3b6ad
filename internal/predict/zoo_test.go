package predict

import (
	"math/bits"
	"testing"
)

// drawSpecs turns fuzz bytes into 2 to 6 predictor specs from every
// registered family. Each parameter is mostly its default or its
// minimum, so that members often share components, and otherwise a
// value within its bounds, capped at 4096 to keep the tables small.
func drawSpecs(b []byte) []string {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return int(c)
	}
	fams := Families()
	specs := make([]string, 2+next()%5)
	for i := range specs {
		f := fams[next()%len(fams)]
		spec := Spec{Family: f.Name, Params: make(map[string]int, len(f.Params))}
		for _, p := range f.Params {
			v := p.Default
			switch next() % 4 {
			case 2:
				v = p.Min
			case 3:
				hi := min(p.Max, 4096)
				if p.Pow2 {
					lo := max(p.Min, 1)
					v = lo << (next() % bits.Len(uint(hi/lo)))
				} else {
					v = p.Min + (next()<<8|next())%(hi-p.Min+1)
				}
			}
			spec.Params[p.Name] = v
		}
		specs[i] = spec.Canonical()
	}
	return specs
}

// stepZoo steps z and the independently built predictors dirs over
// stream, predict-then-update, and fails at the first step where a
// member's prediction differs from its predictor's. A stream byte is
// one branch: bits 0-5 pick one of 64 PCs and bit 7 is the outcome.
func stepZoo(t *testing.T, specs []string, z *Zoo, dirs []DirectionPredictor, stream []byte) {
	t.Helper()
	pred := make([]bool, len(dirs))
	for i, c := range stream {
		pc := 0x400000 + uint32(c&0x3f)<<2
		taken := c&0x80 != 0
		z.Predict(pc, pred)
		for k, d := range dirs {
			if want := d.Predict(pc); pred[k] != want {
				t.Fatalf("%q: step %d: member %d (%s) predicts %t, built alone %t", specs, i, k, specs[k], pred[k], want)
			}
		}
		z.Update(pc, taken)
		for _, d := range dirs {
			d.Update(pc, taken)
		}
	}
}

// buildAlone builds each spec's direction predictor on its own, as
// Spec.Build does.
func buildAlone(specs []string) ([]DirectionPredictor, error) {
	dirs := make([]DirectionPredictor, len(specs))
	for i, s := range specs {
		u, err := build(s)
		if err != nil {
			return nil, err
		}
		dirs[i] = u.Dir
	}
	return dirs, nil
}

// loopStream is a fuzz seed stream of loop branches: four PCs with
// trip counts 3, 5, 7 and 40, interleaved, so loop tables gain
// confidence and TAGE allocates.
func loopStream(n int) []byte {
	trips := [4]int{3, 5, 7, 40}
	var iter [4]int
	out := make([]byte, n)
	for i := range out {
		k := i % 4
		c := byte(k)
		if iter[k] < trips[k] {
			c |= 0x80
			iter[k]++
		} else {
			iter[k] = 0
		}
		out[i] = c
	}
	return out
}

// FuzzZoo draws member specs from every family and an outcome stream.
// At every step the zoo's predictions must equal those of the same
// specs built one by one and stepped predict-then-update, its names
// must be theirs, and after Reset it must predict as fresh predictors
// do over the stream again.
func FuzzZoo(f *testing.F) {
	// The predictability table's zoo, as drawn: each family at its
	// defaults.
	var paper []byte
	paper = append(paper, 3) // five members
	for _, fam := range []string{"bimodal", "gshare", "tage", "loop", "tageloop"} {
		for i, g := range Families() {
			if g.Name == fam {
				paper = append(paper, byte(i))
				paper = append(paper, make([]byte, len(g.Params))...)
			}
		}
	}
	f.Add(paper, fuzzStream(1, 400))
	f.Add(paper, loopStream(2000))
	f.Add([]byte{4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, fuzzStream(2, 300))
	f.Add([]byte{1, 5, 3, 7, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, loopStream(1500))
	f.Fuzz(func(t *testing.T, members, stream []byte) {
		specs := drawSpecs(members)
		dirs, err := buildAlone(specs)
		z, zerr := NewZoo(specs...)
		if (err == nil) != (zerr == nil) {
			t.Fatalf("%q: built alone: %v; as a zoo: %v", specs, err, zerr)
		}
		if err != nil {
			return
		}
		for i, name := range z.Names() {
			if name != dirs[i].Name() {
				t.Fatalf("%q: member %d is named %q, built alone %q", specs, i, name, dirs[i].Name())
			}
		}
		stepZoo(t, specs, z, dirs, stream)
		z.Reset()
		if dirs, err = buildAlone(specs); err != nil {
			t.Fatal(err)
		}
		stepZoo(t, specs, z, dirs, stream)
	})
}

// The predictability table's zoo trains four components for its five
// members, and a component is shared only by members that configure
// it equally.
func TestZooSharing(t *testing.T) {
	count := func(specs ...string) (tage, loop, bimodal, gshare int) {
		t.Helper()
		z, err := NewZoo(specs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range z.dirs {
			switch d.(type) {
			case *TAGE:
				tage++
			case *Bimodal:
				bimodal++
			case *GShare:
				gshare++
			default:
				t.Fatalf("%q: component %T", specs, d)
			}
		}
		return tage, len(z.loops), bimodal, gshare
	}
	for _, c := range []struct {
		specs                       []string
		tage, loop, bimodal, gshare int
	}{
		{[]string{"bimodal", "gshare", "tage", "loop", "tageloop"}, 1, 1, 1, 1},
		{[]string{"tage", "tageloop:hist=32"}, 2, 1, 0, 0},
		{[]string{"tage", "tage:seed=2"}, 2, 0, 0, 0},
		{[]string{"bimodal", "loop:base=512"}, 0, 1, 2, 0},
		{[]string{"loop", "loop:conf=4", "tageloop:loops=128"}, 1, 3, 1, 0},
		{[]string{"gshare", "gshare:hist=12", "bimodal:btb=0", "bimodal:entries=2048,btb=512"}, 0, 0, 1, 2},
	} {
		tage, loop, bimodal, gshare := count(c.specs...)
		if tage != c.tage || loop != c.loop || bimodal != c.bimodal || gshare != c.gshare {
			t.Errorf("%q: %d TAGE, %d loop, %d bimodal, %d gshare components; want %d, %d, %d, %d",
				c.specs, tage, loop, bimodal, gshare, c.tage, c.loop, c.bimodal, c.gshare)
		}
	}
}
