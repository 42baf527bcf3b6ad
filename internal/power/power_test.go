package power

import (
	"errors"
	"testing"

	"asbr/internal/core"
	"asbr/internal/cpu"
)

func TestAreaBits(t *testing.T) {
	base := BaselineBimodal2048()
	// 2048*2 + 2048*62 = 131072 + ... = 4096 + 126976 = 131072.
	if got := base.AreaBits(); got != 2048*2+2048*62 {
		t.Fatalf("baseline area = %d", got)
	}
	asbr := ASBRBimodal(512, 16)
	want := 512*2 + 512*62 + 16*bitEntryBits + bdtBits
	if got := asbr.AreaBits(); got != want {
		t.Fatalf("ASBR area = %d, want %d", got, want)
	}
	// The paper's area claim: the full ASBR configuration is far
	// smaller than the baseline predictor it beats.
	if float64(asbr.AreaBits()) > 0.35*float64(base.AreaBits()) {
		t.Fatalf("ASBR area %d not < 35%% of baseline %d", asbr.AreaBits(), base.AreaBits())
	}
	// gshare adds only the history register.
	if BaselineGShare().AreaBits() != base.AreaBits()+11 {
		t.Fatal("gshare area wrong")
	}
	// Banks multiply BIT storage.
	two := ASBRBimodal(512, 16)
	two.BITBanks = 2
	if two.AreaBits() != asbr.AreaBits()+16*bitEntryBits {
		t.Fatal("bank area wrong")
	}
}

func TestArrayAccessScaling(t *testing.T) {
	small := arrayAccess(1, 256)
	big := arrayAccess(1, 1024)
	if small != 1 {
		t.Fatalf("256-entry access = %v, want 1", small)
	}
	if big != 2 {
		t.Fatalf("1024-entry access = %v, want 2 (sqrt scaling)", big)
	}
	if arrayAccess(1, 0) != 0 {
		t.Fatal("empty array costs energy")
	}
}

func TestEstimateComponents(t *testing.T) {
	p := DefaultParams()
	st := cpu.Stats{
		Instructions:  1000,
		WrongPath:     100,
		CondBranches:  200,
		TakenBranches: 120,
		Fetches:       1100,
	}
	base := Estimate(p, BaselineBimodal2048(), st, nil)
	if base.BIT != 0 || base.BDT != 0 {
		t.Fatalf("baseline has ASBR energy: %+v", base)
	}
	if base.Pipeline != 10000 || base.WrongPath != 400 {
		t.Fatalf("pipeline terms: %+v", base)
	}
	if base.Predictor <= 0 || base.BTB <= 0 {
		t.Fatalf("array terms missing: %+v", base)
	}

	es := &core.Stats{Folds: 50, Fallbacks: 10}
	asbr := Estimate(p, ASBRBimodal(512, 16), st, es)
	if asbr.BIT <= 0 || asbr.BDT <= 0 {
		t.Fatalf("ASBR terms missing: %+v", asbr)
	}
	// The small predictor arrays must cost less per the model.
	if asbr.Predictor >= base.Predictor || asbr.BTB >= base.BTB {
		t.Fatalf("smaller arrays not cheaper: %+v vs %+v", asbr, base)
	}
	if got := base.Total(); got != base.Pipeline+base.WrongPath+base.Predictor+base.BTB+base.Caches {
		t.Fatalf("total mismatch: %v", got)
	}
}

func TestHardwareValidate(t *testing.T) {
	mod := func(f func(*Hardware)) Hardware {
		h := ASBRBimodal(512, 16)
		f(&h)
		return h
	}
	cases := []struct {
		name  string
		h     Hardware
		field string
		want  error // nil = must validate
	}{
		{"paper baseline", BaselineBimodal2048(), "", nil},
		{"paper gshare", BaselineGShare(), "", nil},
		{"paper asbr", ASBRBimodal(512, 16), "", nil},
		{"all absent", Hardware{}, "", nil},
		{"nottaken with BDT", Hardware{BITEntries: 16, BITBanks: 1, HasBDT: true}, "", nil},
		{"negative predictor", mod(func(h *Hardware) { h.PredictorEntries = -512 }), "PredictorEntries", ErrNegative},
		{"non-pow2 predictor", mod(func(h *Hardware) { h.PredictorEntries = 100 }), "PredictorEntries", ErrNotPowerOfTwo},
		{"negative btb", mod(func(h *Hardware) { h.BTBEntries = -1 }), "BTBEntries", ErrNegative},
		{"non-pow2 btb", mod(func(h *Hardware) { h.BTBEntries = 600 }), "BTBEntries", ErrNotPowerOfTwo},
		{"negative bit", mod(func(h *Hardware) { h.BITEntries = -16 }), "BITEntries", ErrNegative},
		{"non-pow2 bit", mod(func(h *Hardware) { h.BITEntries = 12 }), "BITEntries", ErrNotPowerOfTwo},
		{"negative banks", mod(func(h *Hardware) { h.BITBanks = -2 }), "BITBanks", ErrNegative},
		{"non-pow2 banks", mod(func(h *Hardware) { h.BITBanks = 3 }), "BITBanks", ErrNotPowerOfTwo},
		{"negative predictor bits", mod(func(h *Hardware) { h.PredictorBits = -2 }), "PredictorBits", ErrNegative},
		{"negative history bits", mod(func(h *Hardware) { h.HistoryBits = -11 }), "HistoryBits", ErrNegative},
		{"entries without bits", mod(func(h *Hardware) { h.PredictorBits = 0 }), "PredictorBits", ErrMissingBits},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.h.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want cause %v", err, tc.want)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("Validate() = %T, want *FieldError", err)
			}
			if fe.Field != tc.field {
				t.Fatalf("FieldError.Field = %q, want %q", fe.Field, tc.field)
			}
		})
	}
}

// TestEstimateSnapshotMatchesEstimate pins the wire-stats estimator to
// the counter-struct one: a snapshot carrying the same activity figures
// must price to the same report, which is what makes a remote DSE
// score byte-identical to a local one.
func TestEstimateSnapshotMatchesEstimate(t *testing.T) {
	p := DefaultParams()
	st := cpu.Stats{
		Instructions:  9000,
		WrongPath:     700,
		CondBranches:  1000,
		TakenBranches: 500,
		Fetches:       9700,
		Folded:        950,
		FoldFallbacks: 50,
	}
	es := &core.Stats{Folds: 950, Fallbacks: 50}
	sn := st.Snapshot()
	h := ASBRBimodal(512, 16)
	want := Estimate(p, h, st, es)
	got := EstimateSnapshot(p, h, sn)
	if got != want {
		t.Fatalf("EstimateSnapshot = %+v, want %+v", got, want)
	}
	if got.Total() <= 0 {
		t.Fatal("zero total energy for a live run")
	}
}

func TestEstimateFoldingReducesActivity(t *testing.T) {
	p := DefaultParams()
	// Folding removes committed instructions and wrong-path slots and
	// shrinks the branch count the predictor sees.
	baseStats := cpu.Stats{Instructions: 10000, WrongPath: 1500, CondBranches: 2000, TakenBranches: 1200, Fetches: 11500}
	foldStats := cpu.Stats{Instructions: 9000, WrongPath: 700, CondBranches: 1000, TakenBranches: 500, Fetches: 9700}
	es := &core.Stats{Folds: 1000}
	base := Estimate(p, BaselineBimodal2048(), baseStats, nil)
	asbr := Estimate(p, ASBRBimodal(512, 16), foldStats, es)
	if asbr.Total() >= base.Total() {
		t.Fatalf("folding did not reduce modeled energy: %.0f vs %.0f", asbr.Total(), base.Total())
	}
}
