package predict

import (
	"reflect"
	"strings"
	"testing"
)

// build resolves a predictor name or spec the way cpu.New does.
func build(name string) (*Unit, error) {
	s, err := ParseSpec(name)
	if err != nil {
		return nil, err
	}
	return s.Build()
}

// Every legacy name must canonicalize to a spec and build a unit
// identical to what the old closed ByName switch constructed.
func TestLegacyAliasesCanonicalAndIdentical(t *testing.T) {
	cases := []struct {
		name      string
		canonical string
		old       func() *Unit
	}{
		{"", "bimodal:btb=2048,entries=2048", BaselineBimodal},
		{"bimodal", "bimodal:btb=2048,entries=2048", BaselineBimodal},
		{"nottaken", "nottaken", BaselineNotTaken},
		{"gshare", "gshare:btb=2048,entries=2048,hist=11", BaselineGShare},
		{"bi512", "bimodal:btb=512,entries=512", AuxBimodal512},
		{"bi256", "bimodal:btb=512,entries=256", AuxBimodal256},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.name)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.name, err)
			continue
		}
		if got := s.Canonical(); got != c.canonical {
			t.Errorf("Canonical(%q) = %q, want %q", c.name, got, c.canonical)
		}
		u, err := s.Build()
		if err != nil {
			t.Errorf("Build(%q): %v", c.name, err)
			continue
		}
		if want := c.old(); !reflect.DeepEqual(u, want) {
			t.Errorf("%q: spec-built unit differs from legacy constructor (%s vs %s)", c.name, u.Name(), want.Name())
		}
		// The canonical spelling must itself parse back to the same spec.
		s2, err := ParseSpec(s.Canonical())
		if err != nil || s2.Canonical() != s.Canonical() {
			t.Errorf("%q: canonical round-trip failed: %v", c.name, err)
		}
	}
}

// Permuted parameter spellings and bare-vs-explicit forms must coalesce
// to one canonical cache key.
func TestSpecCanonicalCoalesces(t *testing.T) {
	spellings := []string{
		"tage",
		"tage:tables=4,hist=64",
		"tage:hist=64,tables=4",
		"tage:entries=1024,hist=64,tables=4",
	}
	var want string
	for i, sp := range spellings {
		s, err := ParseSpec(sp)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", sp, err)
		}
		if i == 0 {
			want = s.Canonical()
			continue
		}
		if got := s.Canonical(); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", sp, got, want)
		}
	}
	if CanonicalOr("tage:hist=64,tables=4") != want {
		t.Error("CanonicalOr did not normalize a valid spec")
	}
	if CanonicalOr("no-such-family") != "no-such-family" {
		t.Error("CanonicalOr must pass through unparseable names")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"oracle", "families:"},
		{"tage:depth=3", "no parameter"},
		{"tage:tables=x", "not an integer"},
		{"tage:tables=4,tables=5", "duplicate"},
		{"bimodal:", "empty parameter list"},
		{"bimodal:entries=100", "power of two"},
		{"gshare:hist=99", "out of range"},
		{"bimodal:entries", "want key=value"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q): expected error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%q) error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// The unknown-family error and the "help" pseudo-spec must surface each
// family with its parameters and defaults (the serve 400 payload and
// -predictor help both come from here).
func TestParseSpecHelpListing(t *testing.T) {
	_, err := ParseSpec("help")
	if err == nil {
		t.Fatal("ParseSpec(help) must return the listing as an error")
	}
	for _, fam := range []string{"tage", "loop", "tageloop", "bimodal", "gshare", "nottaken"} {
		if !strings.Contains(err.Error(), fam) {
			t.Errorf("help listing missing family %q", fam)
		}
	}
	if !strings.Contains(err.Error(), "tables=4") || !strings.Contains(err.Error(), "default") {
		t.Error("help listing must show parameters with defaults")
	}
	if !strings.Contains(Help(), "legacy aliases") {
		t.Error("Help must mention the legacy aliases")
	}
}

// Every registered family must build with defaults, and the btb=0 knob
// must produce a unit that cannot redirect.
func TestFamiliesBuildWithDefaults(t *testing.T) {
	for _, f := range Families() {
		u, err := build(f.Name)
		if err != nil {
			t.Errorf("build(%q): %v", f.Name, err)
			continue
		}
		if u == nil || u.Dir == nil {
			t.Errorf("%q built a nil unit", f.Name)
		}
	}
	u, err := build("bimodal:btb=0")
	if err != nil {
		t.Fatal(err)
	}
	if u.BTB != nil {
		t.Error("btb=0 must build a unit without a BTB")
	}
	if Must(build("nottaken")).BTB != nil {
		t.Error("nottaken must have no BTB")
	}
}

func TestFamilyNamesSorted(t *testing.T) {
	names := FamilyNames()
	if len(names) < 6 {
		t.Fatalf("expected at least 6 families, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("family names not sorted: %v", names)
		}
	}
	// The deprecated legacy vocabulary still resolves.
	for _, n := range Names() {
		if _, err := build(n); err != nil {
			t.Errorf("legacy name %q: %v", n, err)
		}
	}
}
