// Package predict implements the dynamic branch predictors used as
// baselines and auxiliary predictors in the paper: always-not-taken,
// bimodal (2-bit saturating counters), and gshare (global-history
// two-level), plus a branch target buffer. TAGE, a loop-termination
// predictor and their composite extend the zoo beyond the paper. Every
// predictor a CLI flag, wire field or DSE axis can name resolves
// through the spec registry (ParseSpec).
package predict

import "fmt"

// DirectionPredictor predicts the direction of conditional branches.
// Predict is called at fetch; Update is called at resolve time with
// the actual outcome.
type DirectionPredictor interface {
	// Predict returns true if the branch at pc is predicted taken.
	Predict(pc uint32) bool
	// Update trains the predictor with the branch's actual outcome.
	Update(pc uint32, taken bool)
	// Name identifies the predictor in reports.
	Name() string
	// Reset restores the power-on state.
	Reset()
}

// NotTaken always predicts not-taken: the behaviour of an embedded
// core with no branch prediction hardware (the paper's "not taken"
// baseline row).
type NotTaken struct{}

// Predict implements DirectionPredictor; it is always false.
func (NotTaken) Predict(uint32) bool { return false }

// Update implements DirectionPredictor; it is a no-op.
func (NotTaken) Update(uint32, bool) {}

// Name implements DirectionPredictor.
func (NotTaken) Name() string { return "not taken" }

// Reset implements DirectionPredictor; it is a no-op.
func (NotTaken) Reset() {}

// Taken always predicts taken (useful as a loop-heavy baseline).
type Taken struct{}

// Predict implements DirectionPredictor; it is always true.
func (Taken) Predict(uint32) bool { return true }

// Update implements DirectionPredictor; it is a no-op.
func (Taken) Update(uint32, bool) {}

// Name implements DirectionPredictor.
func (Taken) Name() string { return "taken" }

// Reset implements DirectionPredictor; it is a no-op.
func (Taken) Reset() {}

// counter2 is a 2-bit saturating counter: 0..1 predict not-taken,
// 2..3 predict taken.
type counter2 uint8

const counterInit counter2 = 1 // weakly not-taken at power-on

func (c counter2) taken() bool { return c >= 2 }

func (c counter2) train(taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is the classic per-PC 2-bit saturating-counter predictor
// (McFarling's "bimodal"). The paper's baseline uses 2048 entries; the
// ASBR auxiliary predictors use 512 and 256.
type Bimodal struct {
	table []counter2
	mask  uint32
}

// Must unwraps a constructor result, panicking on error. It is for
// statically-known-valid configurations (tests, package-level
// defaults); anything driven by user input should check the error.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// NewBimodal builds a bimodal predictor with the given number of
// entries (a power of two).
func NewBimodal(entries int) (*Bimodal, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predict: bimodal entries %d not a power of two", entries)
	}
	b := &Bimodal{table: make([]counter2, entries), mask: uint32(entries - 1)}
	b.Reset()
	return b, nil
}

func (b *Bimodal) index(pc uint32) uint32 { return (pc >> 2) & b.mask }

// Predict implements DirectionPredictor.
func (b *Bimodal) Predict(pc uint32) bool { return b.table[b.index(pc)].taken() }

// Update implements DirectionPredictor.
func (b *Bimodal) Update(pc uint32, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].train(taken)
}

// Name implements DirectionPredictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal-%d", len(b.table)) }

// Reset implements DirectionPredictor.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = counterInit
	}
}

// GShare is the two-level global-history predictor: the pattern table
// is indexed by PC XOR global branch history. The paper's baseline is
// an 11-bit history with a 2048-entry second-level table.
type GShare struct {
	table    []counter2
	mask     uint32
	history  uint32
	histMask uint32
	histBits int
}

// NewGShare builds a gshare predictor with historyBits of global
// history and a pattern table of entries 2-bit counters.
func NewGShare(historyBits, entries int) (*GShare, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predict: gshare entries %d not a power of two", entries)
	}
	if historyBits <= 0 || historyBits > 30 {
		return nil, fmt.Errorf("predict: gshare history bits %d out of range", historyBits)
	}
	g := &GShare{
		table:    make([]counter2, entries),
		mask:     uint32(entries - 1),
		histMask: uint32(1)<<historyBits - 1,
		histBits: historyBits,
	}
	g.Reset()
	return g, nil
}

func (g *GShare) index(pc uint32) uint32 { return ((pc >> 2) ^ g.history) & g.mask }

// Predict implements DirectionPredictor.
func (g *GShare) Predict(pc uint32) bool { return g.table[g.index(pc)].taken() }

// Update implements DirectionPredictor. The global history register is
// updated non-speculatively, at resolve time, as in SimpleScalar's
// in-order configurations.
func (g *GShare) Update(pc uint32, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].train(taken)
	g.history = g.history << 1 & g.histMask
	if taken {
		g.history |= 1
	}
}

// Name implements DirectionPredictor.
func (g *GShare) Name() string { return fmt.Sprintf("gshare-%d/%d", g.histBits, len(g.table)) }

// Reset implements DirectionPredictor.
func (g *GShare) Reset() {
	for i := range g.table {
		g.table[i] = counterInit
	}
	g.history = 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
