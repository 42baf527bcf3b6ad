package predict

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file is the predictor registry: every branch-unit configuration
// the system accepts — CLI -predictor flags, the serve/cluster wire
// predictor field, dse search points — resolves through ParseSpec. A
// spec is written
//
//	family[:key=value,...]
//
// e.g. "bimodal", "tage:tables=4,hist=64", "loop:entries=64". Omitted
// parameters take the family defaults; Canonical() renders every
// parameter explicitly in sorted key order so that permuted spellings
// ("tage:hist=64,tables=4" vs "tage:tables=4,hist=64") and bare vs
// explicit forms coalesce to one cache key. Families self-register via
// RegisterFamily from their defining files, so a new predictor lands in
// every flag, wire field, and search axis at once.

// Param describes one integer parameter of a predictor family.
type Param struct {
	Name    string
	Default int
	Min     int
	Max     int
	Pow2    bool // value must be a power of two (checked when > 0)
	Doc     string
}

func (p Param) check(v int) error {
	if v < p.Min || v > p.Max {
		return fmt.Errorf("predict: %s=%d out of range [%d,%d]", p.Name, v, p.Min, p.Max)
	}
	if p.Pow2 && v > 0 && v&(v-1) != 0 {
		return fmt.Errorf("predict: %s=%d must be a power of two", p.Name, v)
	}
	return nil
}

// Family is a registered predictor family: a name, its parameters with
// defaults and validation bounds, and a builder from a complete
// parameter map (every Param present).
type Family struct {
	Name   string
	Doc    string
	Params []Param
	Build  func(params map[string]int) (*Unit, error)
	// shadow adds the family's direction predictor to a zoo from
	// shared components, without a BTB (see Zoo).
	shadow func(params map[string]int, z *Zoo) (zooMember, error)
}

func (f Family) param(name string) (Param, bool) {
	for _, p := range f.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// signature renders "family" or "family:k=default,..." for help/error text.
func (f Family) signature() string {
	if len(f.Params) == 0 {
		return f.Name
	}
	parts := make([]string, len(f.Params))
	for i, p := range f.Params {
		parts[i] = fmt.Sprintf("%s=%d", p.Name, p.Default)
	}
	return f.Name + ":" + strings.Join(parts, ",")
}

var families = map[string]Family{}

// RegisterFamily adds a predictor family to the registry. It is called
// from init functions in this package; duplicate names panic.
func RegisterFamily(f Family) {
	if f.Name == "" || f.Build == nil || f.shadow == nil {
		panic("predict: RegisterFamily needs a name, a builder and zoo components")
	}
	if _, dup := families[f.Name]; dup {
		panic("predict: duplicate predictor family " + f.Name)
	}
	families[f.Name] = f
}

// Families lists the registered predictor families sorted by name.
func Families() []Family {
	out := make([]Family, 0, len(families))
	for _, f := range families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FamilyNames lists the registered family names sorted alphabetically.
func FamilyNames() []string {
	fs := Families()
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// legacyAliases maps the pre-spec predictor names (and the historical
// "" default) onto spec spellings. They remain first-class: each alias
// parses and builds a unit bit-identical to what the old closed ByName
// switch constructed.
var legacyAliases = map[string]string{
	"":       "bimodal",
	"bi512":  "bimodal:entries=512,btb=512",
	"bi256":  "bimodal:entries=256,btb=512",
	"gshare": "gshare",
	// "nottaken" and "bimodal" are family names already.
}

// Spec is a parsed, validated predictor specification. Params is
// complete: every parameter of the family is present (defaults filled).
type Spec struct {
	Family string
	Params map[string]int
}

// ParseSpec parses and validates a predictor spec "family[:k=v,...]".
// Legacy names (nottaken, bimodal, gshare, bi512, bi256, "") are
// accepted as aliases. The error for an unknown family enumerates every
// registered family with its parameters and defaults, so CLI flags and
// serve 400 payloads surface the full vocabulary; the pseudo-spec
// "help" returns that listing unconditionally.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if alias, ok := legacyAliases[s]; ok {
		s = alias
	}
	if s == "help" {
		return Spec{}, fmt.Errorf("predictor spec is family[:key=value,...]\n%s", Help())
	}
	name, rest, hasParams := strings.Cut(s, ":")
	fam, ok := families[name]
	if !ok {
		return Spec{}, fmt.Errorf("predict: unknown predictor %q (families: %s; e.g. %q; legacy aliases: bi512, bi256)",
			name, strings.Join(familySignatures(), " "), "tage:tables=4,hist=64")
	}
	params := make(map[string]int, len(fam.Params))
	if hasParams {
		if rest == "" {
			return Spec{}, fmt.Errorf("predict: spec %q has an empty parameter list", s)
		}
		for _, kv := range strings.Split(rest, ",") {
			k, vs, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				return Spec{}, fmt.Errorf("predict: bad parameter %q in spec %q (want key=value)", kv, s)
			}
			p, known := fam.param(k)
			if !known {
				return Spec{}, fmt.Errorf("predict: family %s has no parameter %q (signature: %s)", fam.Name, k, fam.signature())
			}
			if _, dup := params[k]; dup {
				return Spec{}, fmt.Errorf("predict: duplicate parameter %q in spec %q", k, s)
			}
			v, err := strconv.Atoi(vs)
			if err != nil {
				return Spec{}, fmt.Errorf("predict: parameter %s=%q is not an integer", k, vs)
			}
			if err := p.check(v); err != nil {
				return Spec{}, err
			}
			params[k] = v
		}
	}
	for _, p := range fam.Params {
		if _, ok := params[p.Name]; !ok {
			params[p.Name] = p.Default
		}
	}
	return Spec{Family: fam.Name, Params: params}, nil
}

// Canonical renders the spec with every parameter explicit, sorted by
// key: the one spelling used for cache keys, so that equivalent specs
// coalesce to one entry.
func (s Spec) Canonical() string {
	if len(s.Params) == 0 {
		return s.Family
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, s.Params[k])
	}
	return s.Family + ":" + strings.Join(parts, ",")
}

// Param returns the value of a parameter (the family default if the
// spec was parsed, which fills defaults) or def if absent.
func (s Spec) Param(name string, def int) int {
	if v, ok := s.Params[name]; ok {
		return v
	}
	return def
}

// Build constructs a fresh branch unit from the spec.
func (s Spec) Build() (*Unit, error) {
	fam, ok := families[s.Family]
	if !ok {
		return nil, fmt.Errorf("predict: unknown predictor family %q", s.Family)
	}
	return fam.Build(s.Params)
}

// Canonical parses a predictor name/spec and returns its canonical
// spelling. It is the cache-key normalizer: every surface that keys a
// cache or coalesces requests by predictor should store this form.
func Canonical(name string) (string, error) {
	s, err := ParseSpec(name)
	if err != nil {
		return "", err
	}
	return s.Canonical(), nil
}

// CanonicalOr returns the canonical spelling of name, or name itself
// when it does not parse (callers that validated earlier and only need
// a stable key).
func CanonicalOr(name string) string {
	if c, err := Canonical(name); err == nil {
		return c
	}
	return name
}

// Help returns a multi-line listing of every predictor family with its
// parameters, defaults, and bounds — what "-predictor help" prints and
// what serve embeds in unknown-predictor error payloads.
func Help() string {
	var b strings.Builder
	b.WriteString("predictor families (spec: family[:key=value,...]; omitted keys take defaults):\n")
	for _, f := range Families() {
		fmt.Fprintf(&b, "  %-42s %s\n", f.signature(), f.Doc)
		for _, p := range f.Params {
			pow2 := ""
			if p.Pow2 {
				pow2 = ", power of two"
			}
			fmt.Fprintf(&b, "      %-8s %s (default %d, range %d..%d%s)\n", p.Name, p.Doc, p.Default, p.Min, p.Max, pow2)
		}
	}
	b.WriteString("legacy aliases: nottaken, bimodal, gshare, bi512, bi256\n")
	b.WriteString("examples: tage:tables=4,hist=64  loop:entries=64  bimodal:entries=2048,btb=512")
	return b.String()
}

func familySignatures() []string {
	fs := Families()
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.signature()
	}
	return out
}

// btbFor builds the BTB for a spec's btb parameter; 0 means no BTB
// (the unit can never redirect at fetch).
func btbFor(entries int) (*BTB, error) {
	if entries == 0 {
		return nil, nil
	}
	return NewBTB(entries)
}

func btbParam(def int) Param {
	return Param{Name: "btb", Default: def, Min: 0, Max: 1 << 16, Pow2: true,
		Doc: "branch target buffer entries (0 = none)"}
}

func init() {
	RegisterFamily(Family{
		Name: "nottaken",
		Doc:  "no prediction hardware: always not-taken, no BTB",
		Build: func(map[string]int) (*Unit, error) {
			return BaselineNotTaken(), nil
		},
		shadow: func(_ map[string]int, z *Zoo) (zooMember, error) {
			d, err := z.dir(NotTaken{}, func() (DirectionPredictor, error) { return NotTaken{}, nil })
			return zooMember{loop: -1, dir: d}, err
		},
	})
	RegisterFamily(Family{
		Name: "bimodal",
		Doc:  "per-PC 2-bit saturating counters",
		Params: []Param{
			{Name: "entries", Default: 2048, Min: 1, Max: 1 << 20, Pow2: true, Doc: "counter table entries"},
			btbParam(2048),
		},
		Build: func(p map[string]int) (*Unit, error) {
			dir, err := NewBimodal(p["entries"])
			if err != nil {
				return nil, err
			}
			btb, err := btbFor(p["btb"])
			if err != nil {
				return nil, err
			}
			return NewUnit(dir, btb), nil
		},
		shadow: func(p map[string]int, z *Zoo) (zooMember, error) {
			d, err := z.bimodal(p["entries"])
			return zooMember{loop: -1, dir: d}, err
		},
	})
	RegisterFamily(Family{
		Name: "gshare",
		Doc:  "global-history two-level (PC xor history)",
		Params: []Param{
			{Name: "hist", Default: 11, Min: 1, Max: 30, Doc: "global history bits"},
			{Name: "entries", Default: 2048, Min: 1, Max: 1 << 20, Pow2: true, Doc: "pattern table entries"},
			btbParam(2048),
		},
		Build: func(p map[string]int) (*Unit, error) {
			dir, err := NewGShare(p["hist"], p["entries"])
			if err != nil {
				return nil, err
			}
			btb, err := btbFor(p["btb"])
			if err != nil {
				return nil, err
			}
			return NewUnit(dir, btb), nil
		},
		shadow: func(p map[string]int, z *Zoo) (zooMember, error) {
			d, err := z.dir(gshareKey{p["hist"], p["entries"]}, func() (DirectionPredictor, error) {
				return NewGShare(p["hist"], p["entries"])
			})
			return zooMember{loop: -1, dir: d}, err
		},
	})
}

// Names lists the legacy predictor alias names, in presentation order.
//
// Deprecated: the vocabulary is open now — use FamilyNames/Families for
// the registry and ParseSpec to resolve any spec or alias. Names
// remains for callers that enumerate the paper's original five
// configurations.
func Names() []string {
	return []string{"nottaken", "bimodal", "gshare", "bi512", "bi256"}
}
