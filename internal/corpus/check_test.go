package corpus

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"asbr/internal/fault"
	"asbr/internal/obs"
)

// checkOpts is a corpus sized for unit tests: small but reliably
// non-vacuous (several entries fold).
func checkOpts() CheckOptions {
	return CheckOptions{
		Entries:  8,
		BaseSeed: 2001,
		Knobs:    Knobs{FoldDensity: 0.9, Stmts: 16},
	}
}

// TestCheckClean is the harness's positive contract: a clean corpus
// passes, produces manifest-ready entries, and actually exercised the
// ASBR leg (folds happened).
func TestCheckClean(t *testing.T) {
	opt := checkOpts()
	res, err := Check(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != opt.Entries {
		t.Fatalf("got %d entries, want %d", len(res.Entries), opt.Entries)
	}
	if res.Folds == 0 || res.ASBRPrograms == 0 {
		t.Fatalf("vacuous corpus: folds=%d asbr=%d", res.Folds, res.ASBRPrograms)
	}
	for i, e := range res.Entries {
		if e.Seed != opt.BaseSeed+int64(i) {
			t.Errorf("entry %d: seed %d, want %d", i, e.Seed, opt.BaseSeed+int64(i))
		}
		if e.SnapshotDigest == "" {
			t.Errorf("entry %d: empty snapshot digest", i)
		}
		if err := e.Validate(); err != nil {
			t.Errorf("entry %d: %v", i, err)
		}
	}

	// The run is reproducible: a second check from the same seeds must
	// produce identical entries, and VerifyManifest must accept a
	// manifest round-trip of the first run.
	res2, err := Check(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, res.Entries); err != nil {
		t.Fatal(err)
	}
	manifest, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyManifest(manifest, res2.Entries); err != nil {
		t.Fatalf("re-check does not verify against manifest: %v", err)
	}
}

// TestCheckDetectsFault is the harness's negative contract — the reason
// it exists. An injected BDT corruption on the superblock leg must
// surface as a divergence error naming the generating seed.
func TestCheckDetectsFault(t *testing.T) {
	opt := checkOpts()
	opt.Fault = fault.Plan{Kind: fault.KindBDTFlip, Rate: 1}
	_, err := Check(context.Background(), opt)
	if err == nil {
		t.Fatal("corrupted engine passed the differential check")
	}
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want *DivergenceError, got %T: %v", err, err)
	}
	if div.Leg != "asbr-superblock-vs-reference" {
		t.Errorf("divergence on leg %q, want asbr-superblock-vs-reference", div.Leg)
	}
	if div.Seed < opt.BaseSeed || div.Seed >= opt.BaseSeed+int64(opt.Entries) {
		t.Errorf("pinned seed %d outside corpus range", div.Seed)
	}
	if len(div.Diffs) == 0 {
		t.Error("divergence error carries no field diffs")
	}
	if !strings.Contains(err.Error(), "-seed") {
		t.Errorf("error does not pin the seed for repro: %v", err)
	}
}

// TestCheckServeLeg wires the serve hook to a local record replay — the
// round-trip must be byte-identical — and then to a corrupted hook,
// which must fail on the serve-vs-local leg.
func TestCheckServeLeg(t *testing.T) {
	opt := checkOpts()
	opt.Entries = 3
	opt.Serve = func(rec Record) (obs.Snapshot, error) {
		return Run(rec)
	}
	res, err := Check(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServeChecked != opt.Entries {
		t.Fatalf("serve leg ran %d times, want %d", res.ServeChecked, opt.Entries)
	}

	opt.Serve = func(rec Record) (obs.Snapshot, error) {
		sn, err := Run(rec)
		sn.Cycles++ // a service that lies by one cycle
		return sn, err
	}
	_, err = Check(context.Background(), opt)
	var div *DivergenceError
	if !errors.As(err, &div) || div.Leg != "serve-vs-local" {
		t.Fatalf("perturbed serve hook: got %v, want serve-vs-local divergence", err)
	}
	if len(div.Diffs) != 1 || div.Diffs[0].Field != "cycles" {
		t.Errorf("diffs = %v, want exactly [cycles]", div.Diffs)
	}
}

// TestCheckRejectsBadKnobs: knob validation happens before any
// simulation.
func TestCheckRejectsBadKnobs(t *testing.T) {
	opt := checkOpts()
	opt.Knobs.FoldDensity = 3
	if _, err := Check(context.Background(), opt); err == nil {
		t.Fatal("out-of-range knobs accepted")
	}
}

// TestVerifyManifestDrift: each class of drift between a manifest and a
// regeneration is named distinctly.
func TestVerifyManifestDrift(t *testing.T) {
	knobs, _ := (Knobs{}).Normalize()
	mk := func() []Entry {
		return []Entry{{Name: "corpus-1", Seed: 1, Knobs: knobs, ProgramKey: "src/aa", SnapshotDigest: "dd"}}
	}
	if err := VerifyManifest(mk(), mk()); err != nil {
		t.Fatalf("identical: %v", err)
	}

	cases := map[string]struct {
		mutate func([]Entry)
		want   string
	}{
		"count":  {func(e []Entry) {}, "entries"},
		"seed":   {func(e []Entry) { e[0].Seed = 2 }, "identity"},
		"key":    {func(e []Entry) { e[0].ProgramKey = "src/bb" }, "program key drifted"},
		"digest": {func(e []Entry) { e[0].SnapshotDigest = "ee" }, "digest drifted"},
	}
	for name, tc := range cases {
		got := mk()
		tc.mutate(got)
		if name == "count" {
			got = append(got, got[0])
		}
		err := VerifyManifest(mk(), got)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
	}

	// An unexecuted manifest (no digest) verifies against any digest.
	m := mk()
	m[0].SnapshotDigest = ""
	if err := VerifyManifest(m, mk()); err != nil {
		t.Errorf("empty manifest digest must not pin: %v", err)
	}
}
