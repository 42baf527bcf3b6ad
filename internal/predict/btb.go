package predict

import "fmt"

// BTB is a direct-mapped branch target buffer: it caches the target
// address of taken branches so the fetch stage can redirect without
// decoding. The paper's baseline predictors use 2048 entries; the ASBR
// configurations shrink it to a quarter (512).
type BTB struct {
	tags    []uint32
	targets []uint32
	valid   []bool
	mask    uint32
	// Stats.
	lookups uint64
	hits    uint64
}

// NewBTB builds a branch target buffer with entries slots (a power of two).
func NewBTB(entries int) (*BTB, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predict: BTB entries %d not a power of two", entries)
	}
	return &BTB{
		tags:    make([]uint32, entries),
		targets: make([]uint32, entries),
		valid:   make([]bool, entries),
		mask:    uint32(entries - 1),
	}, nil
}

// Entries returns the BTB capacity.
func (b *BTB) Entries() int { return len(b.tags) }

func (b *BTB) index(pc uint32) uint32 { return (pc >> 2) & b.mask }

// Lookup returns the cached target for the branch at pc, if present.
func (b *BTB) Lookup(pc uint32) (target uint32, ok bool) {
	b.lookups++
	i := b.index(pc)
	if b.valid[i] && b.tags[i] == pc {
		b.hits++
		return b.targets[i], true
	}
	return 0, false
}

// Insert records the taken target of the branch at pc.
func (b *BTB) Insert(pc, target uint32) {
	i := b.index(pc)
	b.tags[i] = pc
	b.targets[i] = target
	b.valid[i] = true
}

// HitRate returns the fraction of lookups that hit.
func (b *BTB) HitRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}

// Reset restores the power-on state.
func (b *BTB) Reset() {
	for i := range b.valid {
		b.valid[i] = false
	}
	b.lookups, b.hits = 0, 0
}

// Unit packages a direction predictor with a BTB into the fetch-stage
// branch unit the pipeline consults. A nil BTB models a core that can
// never redirect at fetch (every taken branch pays the resolve
// penalty), which is what the bare "not taken" baseline is.
type Unit struct {
	Dir DirectionPredictor
	BTB *BTB
}

// NewUnit builds a branch unit.
func NewUnit(dir DirectionPredictor, btb *BTB) *Unit {
	return &Unit{Dir: dir, BTB: btb}
}

// PredictFetch is consulted at fetch for a conditional branch at pc.
// It returns the predicted direction and, when the prediction is taken
// and the BTB knows the target, the redirect address. A taken
// prediction without a BTB hit cannot redirect and is reported as
// redirect=false (the fetch continues sequentially).
func (u *Unit) PredictFetch(pc uint32) (taken bool, target uint32, redirect bool) {
	taken = u.Dir.Predict(pc)
	if !taken || u.BTB == nil {
		return taken, 0, false
	}
	target, ok := u.BTB.Lookup(pc)
	return taken, target, ok
}

// Resolve trains the unit with the actual outcome of the conditional
// branch at pc.
func (u *Unit) Resolve(pc uint32, taken bool, target uint32) {
	u.Dir.Update(pc, taken)
	if taken && u.BTB != nil {
		u.BTB.Insert(pc, target)
	}
}

// Reset restores the power-on state of both components.
func (u *Unit) Reset() {
	u.Dir.Reset()
	if u.BTB != nil {
		u.BTB.Reset()
	}
}

// Name describes the unit configuration.
func (u *Unit) Name() string {
	if u.BTB == nil {
		return u.Dir.Name()
	}
	return fmt.Sprintf("%s+btb%d", u.Dir.Name(), u.BTB.Entries())
}

// Baseline configurations from the paper's Section 8.

// BaselineNotTaken returns the "not taken" baseline: no predictor, no BTB.
func BaselineNotTaken() *Unit { return NewUnit(NotTaken{}, nil) }

// BaselineBimodal returns the baseline bimodal predictor: 2048 2-bit
// counters with a 2048-entry BTB.
func BaselineBimodal() *Unit { return NewUnit(Must(NewBimodal(2048)), Must(NewBTB(2048))) }

// BaselineGShare returns the baseline gshare predictor: 11-bit global
// history, 2048-entry pattern table, 2048-entry BTB.
func BaselineGShare() *Unit { return NewUnit(Must(NewGShare(11, 2048)), Must(NewBTB(2048))) }

// AuxNotTaken returns the ASBR auxiliary "not taken" configuration
// (essentially no predictor).
func AuxNotTaken() *Unit { return NewUnit(NotTaken{}, nil) }

// AuxBimodal512 returns the ASBR auxiliary bimodal-512 with the BTB
// reduced to a quarter of the baseline (512 entries).
func AuxBimodal512() *Unit { return NewUnit(Must(NewBimodal(512)), Must(NewBTB(512))) }

// AuxBimodal256 returns the ASBR auxiliary bimodal-256 with the BTB
// reduced to a quarter of the baseline (512 entries).
func AuxBimodal256() *Unit { return NewUnit(Must(NewBimodal(256)), Must(NewBTB(512))) }

// Predictor name resolution (ParseSpec/Spec.Build) lives in spec.go: the
// registry resolves any "family[:k=v,...]" spec plus the legacy
// aliases, so every caller that accepts a predictor name —
// cpu.Config.Predictor, the CLIs, the serve API — shares one open
// vocabulary.
