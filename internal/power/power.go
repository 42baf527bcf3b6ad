// Package power models the energy and area claims of the paper's
// abstract and §6: folding branches reduces the number of instructions
// passing through the pipeline (no branch, no wrong-path work), and a
// small auxiliary predictor plus a 16-entry BIT is far cheaper in area
// than the 2048-entry general-purpose predictor it replaces.
//
// The model is activity-based with relative energy units: each event
// (pipeline slot, predictor array access, BTB lookup, BIT CAM search,
// BDT update, cache access) costs energy proportional to the accessed
// structure's size, with array access energy growing as sqrt(entries)
// (bitline/wordline scaling) and CAM search energy linear in entries
// (every entry comparator fires per search). The paper reports no
// absolute power numbers, so only relative comparisons are meaningful
// — exactly how the package is used in the experiments.
package power

import (
	"errors"
	"fmt"
	"math"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/obs"
)

// Params sets per-event energy costs in arbitrary units. The defaults
// are loosely scaled to early-2000s CMOS relationships; only ratios
// matter.
type Params struct {
	PipeSlot      float64 // one instruction traversing the 5-stage pipe
	WrongPathSlot float64 // one squashed wrong-path instruction (fetch+decode only)
	ArrayBase     float64 // array access at 256 entries (scaled by sqrt)
	CAMPerEntry   float64 // CAM comparator per entry per search
	BDTUpdate     float64 // one direction-bit/counter update
	CacheAccess   float64 // one L1 access (fixed 8KB in this platform)
}

// DefaultParams returns the reference parameterization.
func DefaultParams() Params {
	return Params{
		PipeSlot:      10,
		WrongPathSlot: 4,
		ArrayBase:     1.0,
		CAMPerEntry:   0.05,
		BDTUpdate:     0.1,
		CacheAccess:   5,
	}
}

// Hardware describes the branch-handling structures of a configuration.
type Hardware struct {
	PredictorEntries int // direction-predictor table entries (0 = none)
	PredictorBits    int // bits per direction entry (2 for bimodal/gshare)
	HistoryBits      int // global history register (gshare/TAGE)
	// AuxBits is additional predictor storage not captured by the
	// entries×bits product: TAGE tagged tables (counter + useful bits +
	// partial tag per entry) and loop-predictor trip counters. It is
	// priced in AreaBits; access energy still scales with the primary
	// table via PredictorEntries.
	AuxBits    int
	BTBEntries int // branch target buffer entries (0 = none)
	BITEntries int // ASBR branch identification table entries (0 = no ASBR)
	BITBanks   int // BIT copies (only one searched at a time)
	HasBDT     bool
}

// BaselineBimodal2048 describes the paper's baseline predictor.
func BaselineBimodal2048() Hardware {
	return Hardware{PredictorEntries: 2048, PredictorBits: 2, BTBEntries: 2048}
}

// BaselineGShare describes the paper's gshare baseline.
func BaselineGShare() Hardware {
	return Hardware{PredictorEntries: 2048, PredictorBits: 2, HistoryBits: 11, BTBEntries: 2048}
}

// ASBRBimodal returns the ASBR configuration with an auxiliary bimodal
// of the given size and a quarter-size BTB, as evaluated in Figure 11.
func ASBRBimodal(auxEntries, bitEntries int) Hardware {
	return Hardware{
		PredictorEntries: auxEntries,
		PredictorBits:    2,
		BTBEntries:       512,
		BITEntries:       bitEntries,
		BITBanks:         1,
		HasBDT:           true,
	}
}

// Sentinel causes for Hardware validation failures; every violation is
// wrapped in a *FieldError naming the offending field, so callers can
// both dispatch on the class (errors.Is) and report the exact knob.
var (
	// ErrNegative marks an entry count below zero.
	ErrNegative = errors.New("negative entry count")
	// ErrNotPowerOfTwo marks a table size that is not a power of two —
	// the indexed and CAM structures the model prices are all
	// power-of-two arrays; anything else silently mispriced before
	// validation existed.
	ErrNotPowerOfTwo = errors.New("entry count not a power of two")
	// ErrMissingBits marks a predictor with entries but zero bits per
	// entry (its area would silently collapse to zero).
	ErrMissingBits = errors.New("predictor entries without predictor bits")
)

// FieldError is a Hardware validation failure: the field, the rejected
// value, and the sentinel cause (ErrNegative, ErrNotPowerOfTwo,
// ErrMissingBits) reachable through errors.Is/Unwrap.
type FieldError struct {
	Field string
	Value int
	Err   error
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("power: %s = %d: %v", e.Field, e.Value, e.Err)
}

func (e *FieldError) Unwrap() error { return e.Err }

// powerOfTwo reports whether n is a positive power of two.
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate rejects degenerate configurations before they reach
// AreaBits/arrayAccess, which would otherwise price them as silent
// garbage (negative areas, sqrt of junk ratios). Zero means "structure
// absent" and is always legal; a present structure must be a power-of-
// two array, matching every configuration the paper and the DSE
// grammar can express.
func (h Hardware) Validate() error {
	tables := []struct {
		field string
		value int
	}{
		{"PredictorEntries", h.PredictorEntries},
		{"BTBEntries", h.BTBEntries},
		{"BITEntries", h.BITEntries},
		{"BITBanks", h.BITBanks},
	}
	for _, t := range tables {
		if t.value < 0 {
			return &FieldError{Field: t.field, Value: t.value, Err: ErrNegative}
		}
		if t.value > 0 && !powerOfTwo(t.value) {
			return &FieldError{Field: t.field, Value: t.value, Err: ErrNotPowerOfTwo}
		}
	}
	if h.PredictorBits < 0 {
		return &FieldError{Field: "PredictorBits", Value: h.PredictorBits, Err: ErrNegative}
	}
	if h.HistoryBits < 0 {
		return &FieldError{Field: "HistoryBits", Value: h.HistoryBits, Err: ErrNegative}
	}
	if h.AuxBits < 0 {
		return &FieldError{Field: "AuxBits", Value: h.AuxBits, Err: ErrNegative}
	}
	if h.PredictorEntries > 0 && h.PredictorBits == 0 {
		return &FieldError{Field: "PredictorBits", Value: h.PredictorBits, Err: ErrMissingBits}
	}
	return nil
}

// The storage cost of one BTB entry: a 30-bit tag plus a 32-bit target.
const btbEntryBits = 62

// The storage cost of one BIT entry (paper §7): PC (32) + BA (32) +
// inst1 (32) + inst2 (32) + DI (register 5 + condition 3).
const bitEntryBits = 32 + 32 + 32 + 32 + 8

// bdtBits is the BDT storage: per architectural register, 6 direction
// bits plus a 3-bit validity counter (paper Figure 8).
const bdtBits = 32 * (6 + 3)

// AreaBits returns the total storage of the branch-handling hardware
// in bits — the paper's area metric ("significantly lower area costs").
func (h Hardware) AreaBits() int {
	bits := h.PredictorEntries*h.PredictorBits + h.HistoryBits + h.AuxBits
	bits += h.BTBEntries * btbEntryBits
	banks := h.BITBanks
	if banks == 0 && h.BITEntries > 0 {
		banks = 1
	}
	bits += h.BITEntries * bitEntryBits * banks
	if h.HasBDT {
		bits += bdtBits
	}
	return bits
}

// arrayAccess scales array energy with sqrt of the entry count.
func arrayAccess(base float64, entries int) float64 {
	if entries <= 0 {
		return 0
	}
	return base * math.Sqrt(float64(entries)/256)
}

// Report is the energy breakdown of one simulation.
type Report struct {
	Pipeline  float64 // committed-instruction pipeline activity
	WrongPath float64 // squashed wrong-path slots
	Predictor float64 // direction-predictor array accesses
	BTB       float64 // BTB lookups/updates
	BIT       float64 // BIT CAM searches (every fetch)
	BDT       float64 // early-condition-evaluation updates
	Caches    float64 // I- and D-cache accesses
}

// Total sums the components.
func (r Report) Total() float64 {
	return r.Pipeline + r.WrongPath + r.Predictor + r.BTB + r.BIT + r.BDT + r.Caches
}

// Estimate computes the energy report for a finished simulation. eng
// may be nil when the configuration has no ASBR.
func Estimate(p Params, h Hardware, st cpu.Stats, eng *core.Stats) Report {
	var r Report
	r.Pipeline = p.PipeSlot * float64(st.Instructions)
	r.WrongPath = p.WrongPathSlot * float64(st.WrongPath)
	// The direction predictor and BTB are consulted for every
	// conditional branch that reaches the pipeline, and trained at
	// resolve: two array accesses per branch.
	if h.PredictorEntries > 0 {
		r.Predictor = 2 * arrayAccess(p.ArrayBase, h.PredictorEntries) * float64(st.CondBranches)
	}
	if h.BTBEntries > 0 {
		lookups := float64(st.CondBranches)  // fetch-time lookup
		updates := float64(st.TakenBranches) // insert on taken
		r.BTB = arrayAccess(p.ArrayBase, h.BTBEntries) * (lookups + updates)
	}
	if h.BITEntries > 0 {
		// The BIT is CAM-searched on every fetch (paper §7: "looked up
		// with the program counter during the fetch stage").
		r.BIT = p.CAMPerEntry * float64(h.BITEntries) * float64(st.Fetches)
	}
	if h.HasBDT && eng != nil {
		// One BDT write per delivered register value plus one read per
		// BIT hit; approximate with folds+fallbacks reads and the
		// committed-instruction write stream.
		r.BDT = p.BDTUpdate * (float64(st.Instructions) + float64(eng.Folds+eng.Fallbacks))
	}
	r.Caches = p.CacheAccess * float64(st.ICache.Accesses()+st.DCache.Accesses())
	return r
}

// EstimateSnapshot is Estimate over the canonical cross-layer record
// instead of the in-process counter structs: every activity term comes
// from obs.Snapshot fields that ride the serve wire protocol
// (SimStatsV1), so a score computed from a remote daemon's response is
// byte-identical to one computed from a local run. The BDT read stream
// (Estimate's eng.Folds+eng.Fallbacks) maps onto the snapshot's Folded
// and FoldFallbacks counters, which the engine reports through the
// same cpu.Stats projection.
func EstimateSnapshot(p Params, h Hardware, s obs.Snapshot) Report {
	var r Report
	r.Pipeline = p.PipeSlot * float64(s.Instructions)
	r.WrongPath = p.WrongPathSlot * float64(s.WrongPath)
	if h.PredictorEntries > 0 {
		r.Predictor = 2 * arrayAccess(p.ArrayBase, h.PredictorEntries) * float64(s.CondBranches)
	}
	if h.BTBEntries > 0 {
		lookups := float64(s.CondBranches)
		updates := float64(s.TakenBranches)
		r.BTB = arrayAccess(p.ArrayBase, h.BTBEntries) * (lookups + updates)
	}
	if h.BITEntries > 0 {
		r.BIT = p.CAMPerEntry * float64(h.BITEntries) * float64(s.Fetches)
	}
	if h.HasBDT {
		r.BDT = p.BDTUpdate * (float64(s.Instructions) + float64(s.Folded+s.FoldFallbacks))
	}
	r.Caches = p.CacheAccess * float64(s.ICacheAccesses+s.DCacheAccesses)
	return r
}
