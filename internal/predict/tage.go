package predict

import (
	"fmt"
	"math"
	"math/bits"
)

// TAGE is a tagged-geometric-history predictor (Seznec & Michaud): a
// bimodal base table backed by N tagged tables indexed by hashes of
// geometrically increasing global-history lengths. The longest-length
// tag match provides the prediction; useful-bit counters arbitrate
// allocation on mispredictions and decay periodically so stale entries
// can be reclaimed.
//
// Determinism contract: Predict is read-only; all training, history
// update, and allocation happen in Update, and the only randomness
// (allocation-victim choice) comes from a seeded splitmix64 stream that
// Reset reseeds — the same seed replays bit-identical predictions.
type TAGE struct {
	cfg      TAGEConfig
	base     *Bimodal
	banks    []tageBank
	hist     uint64 // global history shift register, newest outcome in bit 0
	idxShift uint32 // 2 + index bits: the PC bits above the index
	tagMask  uint32
	rng      uint64 // splitmix64 state
	tick     uint64 // updates since the last useful-bit decay
}

// TAGEConfig sizes a TAGE predictor. Zero fields take defaults.
type TAGEConfig struct {
	Tables  int    // tagged tables (default 4)
	Entries int    // entries per tagged table, power of two (default 1024)
	MaxHist int    // longest history length in branches, <= 64 (default 64)
	MinHist int    // shortest history length (default 4)
	TagBits int    // partial tag width (default 8)
	Base    int    // base bimodal entries, power of two (default 2048)
	Seed    uint64 // PRNG seed for allocation choices (default 1)
	// DecayPeriod is the number of Updates between useful-bit decays
	// (default 1<<18). Exposed for tests.
	DecayPeriod uint64
}

type tageBank struct {
	entries []tageEntry
	mask    uint32
	length  int // history length hashed into this bank's index and tag
	// The newest length outcomes folded to the index width, the tag
	// width and the tag width - 1.
	idx, tag, tag1 foldedHist
}

// foldedHist is a global history window xor-folded to width bits: bit
// i of the window lands on bit i mod width. It is a circular shift
// register (Seznec's folded history), so each outcome costs a rotate
// and two xors instead of a re-fold of the whole window.
type foldedHist struct {
	val   uint32
	mask  uint32 // 1<<width - 1
	width uint8
	out   uint8 // length mod width: where the bit leaving the window sits after the rotate
}

func newFoldedHist(length, width int) foldedHist {
	return foldedHist{mask: 1<<width - 1, width: uint8(width), out: uint8(length % width)}
}

// push advances the fold by one outcome: in enters the window and out,
// the window's oldest outcome, leaves it.
func (f *foldedHist) push(in, out uint32) {
	v := f.val<<1 | f.val>>(f.width-1)
	f.val = (v ^ in ^ out<<f.out) & f.mask
}

type tageEntry struct {
	ctr int8 // 3-bit signed: >= 0 predicts taken
	u   uint8
	tag uint16
}

const (
	tageCtrMax = 3
	tageCtrMin = -4
	tageUMax   = 3
)

// filled returns cfg with every zero field at its default: two
// configurations build the same predictor exactly when their filled
// forms are equal.
func (cfg TAGEConfig) filled() TAGEConfig {
	if cfg.Tables == 0 {
		cfg.Tables = 4
	}
	if cfg.Entries == 0 {
		cfg.Entries = 1024
	}
	if cfg.MaxHist == 0 {
		cfg.MaxHist = 64
	}
	if cfg.MinHist == 0 {
		cfg.MinHist = 4
	}
	if cfg.TagBits == 0 {
		cfg.TagBits = 8
	}
	if cfg.Base == 0 {
		cfg.Base = 2048
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DecayPeriod == 0 {
		cfg.DecayPeriod = 1 << 18
	}
	return cfg
}

// NewTAGE builds a TAGE predictor.
func NewTAGE(cfg TAGEConfig) (*TAGE, error) {
	cfg = cfg.filled()
	if cfg.Tables < 1 || cfg.Tables > 16 {
		return nil, fmt.Errorf("predict: tage tables %d out of range [1,16]", cfg.Tables)
	}
	if cfg.Entries < 2 || cfg.Entries&(cfg.Entries-1) != 0 {
		return nil, fmt.Errorf("predict: tage entries %d not a power of two >= 2", cfg.Entries)
	}
	if cfg.MaxHist < 2 || cfg.MaxHist > 64 {
		return nil, fmt.Errorf("predict: tage max history %d out of range [2,64]", cfg.MaxHist)
	}
	if cfg.MinHist < 1 || cfg.MinHist > cfg.MaxHist {
		return nil, fmt.Errorf("predict: tage min history %d out of range [1,%d]", cfg.MinHist, cfg.MaxHist)
	}
	if cfg.TagBits < 4 || cfg.TagBits > 15 {
		return nil, fmt.Errorf("predict: tage tag bits %d out of range [4,15]", cfg.TagBits)
	}
	base, err := NewBimodal(cfg.Base)
	if err != nil {
		return nil, err
	}
	idxBits := bits.TrailingZeros(uint(cfg.Entries))
	t := &TAGE{
		cfg: cfg, base: base, banks: make([]tageBank, cfg.Tables),
		idxShift: uint32(2 + idxBits), tagMask: 1<<cfg.TagBits - 1,
	}
	for i := range t.banks {
		l := geomLength(cfg.MinHist, cfg.MaxHist, i, cfg.Tables)
		t.banks[i] = tageBank{
			entries: make([]tageEntry, cfg.Entries),
			mask:    uint32(cfg.Entries - 1),
			length:  l,
			idx:     newFoldedHist(l, idxBits),
			tag:     newFoldedHist(l, cfg.TagBits),
			tag1:    newFoldedHist(l, cfg.TagBits-1),
		}
	}
	t.Reset()
	return t, nil
}

// geomLength spaces history lengths geometrically between min and max
// (Seznec's L(i) = min * (max/min)^(i/(N-1))), forced strictly
// increasing so every bank sees a distinct history window.
func geomLength(min, max, i, n int) int {
	if n == 1 {
		return max
	}
	ratio := math.Pow(float64(max)/float64(min), 1/float64(n-1))
	v := int(float64(min)*math.Pow(ratio, float64(i)) + 0.5)
	if v <= min+i-1 {
		v = min + i // force strictly increasing
	}
	if v > max {
		v = max
	}
	if i == n-1 {
		v = max
	}
	return v
}

func (t *TAGE) index(pc uint32, bank int) uint32 {
	b := &t.banks[bank]
	return ((pc >> 2) ^ (pc >> t.idxShift) ^ b.idx.val ^ uint32(bank)*0x27d4eb2f) & b.mask
}

func (t *TAGE) tag(pc uint32, bank int) uint16 {
	b := &t.banks[bank]
	return uint16(((pc >> 2) ^ b.tag.val ^ b.tag1.val<<1) & t.tagMask)
}

// lookup finds the provider (longest tag-matching bank, -1 for base)
// and the alternate prediction (next-longest match, else base) for the
// current history. It is read-only.
func (t *TAGE) lookup(pc uint32) (provider int, providerIdx uint32, pred, altPred bool) {
	provider = -1
	alt := -1
	var altIdx uint32
	for i := len(t.banks) - 1; i >= 0; i-- {
		idx := t.index(pc, i)
		if t.banks[i].entries[idx].tag == t.tag(pc, i) {
			if provider < 0 {
				provider, providerIdx = i, idx
			} else if alt < 0 {
				alt, altIdx = i, idx
				break
			}
		}
	}
	basePred := t.base.Predict(pc)
	switch {
	case provider < 0:
		return -1, 0, basePred, basePred
	case alt < 0:
		return provider, providerIdx, t.banks[provider].entries[providerIdx].ctr >= 0, basePred
	default:
		return provider, providerIdx, t.banks[provider].entries[providerIdx].ctr >= 0,
			t.banks[alt].entries[altIdx].ctr >= 0
	}
}

// Predict implements DirectionPredictor. It is read-only: engines may
// call it a different number of times (the superblock engine re-probes
// at fetch) without perturbing state.
func (t *TAGE) Predict(pc uint32) bool {
	_, _, pred, _ := t.lookup(pc)
	return pred
}

// Update implements DirectionPredictor. Provider selection is
// recomputed from the resolve-time history (the same non-speculative
// idiom as GShare), so training is independent of how many Predict
// probes the engine issued.
func (t *TAGE) Update(pc uint32, taken bool) {
	provider, providerIdx, pred, altPred := t.lookup(pc)

	if provider >= 0 {
		e := &t.banks[provider].entries[providerIdx]
		// The useful bit tracks whether the provider beats the
		// alternate prediction; only then is the entry worth keeping.
		if pred != altPred {
			if pred == taken {
				if e.u < tageUMax {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		e.ctr = trainSigned(e.ctr, taken)
	} else {
		t.base.Update(pc, taken)
	}

	// Allocate a longer-history entry on a misprediction, so the
	// predictor escalates to more context exactly where it fails.
	if pred != taken && provider < len(t.banks)-1 {
		t.allocate(pc, provider, taken)
	}

	// Periodic useful-bit decay reclaims entries whose usefulness was
	// earned under stale history.
	t.tick++
	if t.tick >= t.cfg.DecayPeriod {
		t.tick = 0
		for i := range t.banks {
			for j := range t.banks[i].entries {
				t.banks[i].entries[j].u >>= 1
			}
		}
	}

	in := b2u(taken)
	for i := range t.banks {
		b := &t.banks[i]
		out := uint32(t.hist>>uint(b.length-1)) & 1
		b.idx.push(in, out)
		b.tag.push(in, out)
		b.tag1.push(in, out)
	}
	t.hist = t.hist<<1 | uint64(in)
}

// allocate claims an entry in a bank with longer history than the
// provider. Among banks whose victim entry has u == 0, a seeded coin
// biases toward shorter histories (cheaper to warm up); if every victim
// is useful, their u counters are decremented instead (anti-ping-pong).
func (t *TAGE) allocate(pc uint32, provider int, taken bool) {
	type cand struct {
		bank int
		idx  uint32
	}
	var buf [16]cand // at most Tables-1 banks lie above a provider
	cands := buf[:0]
	for i := provider + 1; i < len(t.banks); i++ {
		idx := t.index(pc, i)
		if t.banks[i].entries[idx].u == 0 {
			cands = append(cands, cand{i, idx})
		}
	}
	if len(cands) == 0 {
		for i := provider + 1; i < len(t.banks); i++ {
			idx := t.index(pc, i)
			if e := &t.banks[i].entries[idx]; e.u > 0 {
				e.u--
			}
		}
		return
	}
	pick := cands[0]
	for _, c := range cands[1:] {
		// Move to the longer-history candidate with probability 1/3.
		if t.rand()%3 == 0 {
			pick = c
		} else {
			break
		}
	}
	e := &t.banks[pick.bank].entries[pick.idx]
	e.tag = t.tag(pc, pick.bank)
	e.u = 0
	if taken {
		e.ctr = 0 // weakly taken
	} else {
		e.ctr = -1 // weakly not-taken
	}
}

func trainSigned(c int8, taken bool) int8 {
	if taken {
		if c < tageCtrMax {
			return c + 1
		}
		return c
	}
	if c > tageCtrMin {
		return c - 1
	}
	return c
}

// rand steps the seeded splitmix64 stream. It is consumed only in
// Update (allocation), never in Predict.
func (t *TAGE) rand() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Name implements DirectionPredictor.
func (t *TAGE) Name() string {
	return fmt.Sprintf("tage-%dx%d/h%d", len(t.banks), t.cfg.Entries, t.cfg.MaxHist)
}

// Reset implements DirectionPredictor: tables, history, tick, and the
// PRNG all return to the seeded power-on state, so a Reset rerun is
// bit-identical.
func (t *TAGE) Reset() {
	t.base.Reset()
	for i := range t.banks {
		b := &t.banks[i]
		for j := range b.entries {
			b.entries[j] = tageEntry{}
		}
		b.idx.val, b.tag.val, b.tag1.val = 0, 0, 0
	}
	t.hist = 0
	t.tick = 0
	t.rng = t.cfg.Seed
}

// HistoryLengths reports the geometric history length of each tagged
// bank, shortest first (for tests and reports).
func (t *TAGE) HistoryLengths() []int {
	out := make([]int, len(t.banks))
	for i, b := range t.banks {
		out[i] = b.length
	}
	return out
}

func init() {
	RegisterFamily(Family{
		Name: "tage",
		Doc:  "tagged geometric-history predictor with bimodal base",
		Params: []Param{
			{Name: "tables", Default: 4, Min: 1, Max: 16, Doc: "tagged tables"},
			{Name: "entries", Default: 1024, Min: 16, Max: 1 << 16, Pow2: true, Doc: "entries per tagged table"},
			{Name: "hist", Default: 64, Min: 2, Max: 64, Doc: "longest history length"},
			{Name: "tag", Default: 8, Min: 4, Max: 15, Doc: "partial tag bits"},
			{Name: "base", Default: 2048, Min: 16, Max: 1 << 20, Pow2: true, Doc: "base bimodal entries"},
			{Name: "seed", Default: 1, Min: 1, Max: 1 << 30, Doc: "allocation PRNG seed"},
			btbParam(2048),
		},
		Build: func(p map[string]int) (*Unit, error) {
			dir, err := NewTAGE(tageParams(p))
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
			d, err := z.tage(tageParams(p))
			return zooMember{loop: -1, dir: d}, err
		},
	})
}

// tageParams is the TAGE configuration of a tage or tageloop spec.
func tageParams(p map[string]int) TAGEConfig {
	return TAGEConfig{
		Tables:  p["tables"],
		Entries: p["entries"],
		MaxHist: p["hist"],
		TagBits: p["tag"],
		Base:    p["base"],
		Seed:    uint64(p["seed"]),
	}
}
