// Package dse is the design-space-exploration layer: a seeded,
// budgeted search over the ASBR configuration vector — BIT capacity
// and bank count, BDT update point (the paper's fold-threshold
// optimization), auxiliary predictor choice and size, L1 cache
// geometry, and MiniC scheduling aggressiveness — that evaluates
// candidates through the same execution path the serve daemon uses
// (corpus.RunBench) and reduces them to a Pareto front over
// {cycles, energy, area}.
//
// The paper fixes one configuration and reports its Figure 6/11
// speedups; this package synthesizes the best configuration per
// workload instead. Determinism is a hard contract: the same seed and
// budget produce a byte-identical front at any worker count, locally
// or against a remote daemon fleet (DESIGN.md §13).
package dse

import (
	"fmt"
	"math/rand"
	"strings"

	"asbr/internal/core"
	"asbr/internal/power"
	"asbr/internal/predict"
	"asbr/internal/serve/apitypes"
	"asbr/internal/workload"
)

// Axis ladders — the discrete values the search may visit. Every value
// is a power of two (power.Hardware.Validate enforces it for the
// priced structures), and every ladder contains its paper-default
// rung.
var (
	bitLadder    = []int{2, 4, 8, 16, 32, 64}
	bankLadder   = []int{1, 2, 4}
	cacheLadder  = []int{2, 4, 8, 16, 32}
	updateLadder = []string{"ex", "mem", "wb"}
	// predLadder orders the predictor axis by hardware capability:
	// nothing, the paper's shrunken auxiliaries, the full-size
	// baselines, then the zoo (loop, TAGE, TAGE+loop at their default
	// spec parameters). Any spec the predict registry resolves is a
	// valid Config.Predictor; off-ladder specs simply do not move on
	// this axis during search.
	predLadder = []string{"nottaken", "bi256", "bi512", "bimodal", "gshare", "loop", "tage", "tageloop"}
	// predCanon matches configs onto the ladder by canonical spelling,
	// so "tage:tables=4,hist=64" occupies the same rung as "tage".
	predCanon = func() []string {
		out := make([]string, len(predLadder))
		for i, p := range predLadder {
			out[i] = predict.CanonicalOr(p)
		}
		return out
	}()
)

// Config is one point of the search grammar: a complete ASBR machine
// configuration for one benchmark. All fields are explicit after
// Normalize — the grammar has no implicit defaults, so a config's Key
// names exactly one machine.
type Config struct {
	Bench      string `json:"bench"`
	Predictor  string `json:"predictor"`   // auxiliary predictor spec (predict.ParseSpec grammar)
	BITEntries int    `json:"bit_entries"` // BIT capacity
	BITBanks   int    `json:"bit_banks"`   // switchable BIT copies
	Update     string `json:"update"`      // BDT update point ex|mem|wb (fold thresholds 2|3|4)
	ICacheKB   int    `json:"icache_kb"`
	DCacheKB   int    `json:"dcache_kb"`
	Sched      string `json:"sched"` // MiniC scheduling level none|compiler|full
}

// Default returns the paper-default configuration for a benchmark: the
// §7 16-entry single-bank BIT, the Figure 11 bimodal-512 auxiliary
// predictor, the MEM update point (threshold 3), the platform's 8KB
// caches and the full §5.1 scheduling methodology. Every hill-climb
// starts here, so the front is always comparable against the paper's
// own design point.
func Default(bench string) Config {
	return Config{
		Bench:      bench,
		Predictor:  "bi512",
		BITEntries: core.DefaultBITEntries,
		BITBanks:   1,
		Update:     "mem",
		ICacheKB:   8,
		DCacheKB:   8,
		Sched:      workload.SchedFull,
	}
}

// Normalize fills zero-valued axes with the paper defaults and
// validates every axis against its ladder, returning the canonical
// config. A config that survives Normalize is exactly expressible on
// the serve wire protocol and prices cleanly in the power model.
func (c Config) Normalize() (Config, error) {
	d := Default(c.Bench)
	if c.Predictor == "" {
		c.Predictor = d.Predictor
	}
	if c.BITEntries == 0 {
		c.BITEntries = d.BITEntries
	}
	if c.BITBanks == 0 {
		c.BITBanks = d.BITBanks
	}
	if c.Update == "" {
		c.Update = d.Update
	}
	if c.ICacheKB == 0 {
		c.ICacheKB = d.ICacheKB
	}
	if c.DCacheKB == 0 {
		c.DCacheKB = d.DCacheKB
	}
	if c.Sched == "" {
		c.Sched = d.Sched
	}

	ok := false
	for _, n := range workload.Names() {
		if c.Bench == n {
			ok = true
		}
	}
	if !ok {
		return Config{}, fmt.Errorf("dse: unknown bench %q (want %s)", c.Bench, strings.Join(workload.Names(), "|"))
	}
	if _, err := predict.ParseSpec(c.Predictor); err != nil {
		return Config{}, fmt.Errorf("dse: %v", err)
	}
	if err := onLadder("bit_entries", c.BITEntries, bitLadder); err != nil {
		return Config{}, err
	}
	if err := onLadder("bit_banks", c.BITBanks, bankLadder); err != nil {
		return Config{}, err
	}
	if err := onLadderS("update", c.Update, updateLadder); err != nil {
		return Config{}, err
	}
	if err := onLadder("icache_kb", c.ICacheKB, cacheLadder); err != nil {
		return Config{}, err
	}
	if err := onLadder("dcache_kb", c.DCacheKB, cacheLadder); err != nil {
		return Config{}, err
	}
	if err := onLadderS("sched", c.Sched, workload.SchedLevels()); err != nil {
		return Config{}, err
	}
	if err := c.Hardware().Validate(); err != nil {
		return Config{}, fmt.Errorf("dse: %v", err)
	}
	return c, nil
}

func onLadder(name string, v int, ladder []int) error {
	for _, l := range ladder {
		if v == l {
			return nil
		}
	}
	return fmt.Errorf("dse: %s %d not on the search ladder %v", name, v, ladder)
}

func onLadderS(name, v string, ladder []string) error {
	for _, l := range ladder {
		if v == l {
			return nil
		}
	}
	return fmt.Errorf("dse: %s %q not on the search ladder (want %s)", name, v, strings.Join(ladder, "|"))
}

// Key is the config's canonical identity: the dedup key of the
// once-cache and the tiebreak ordering of the Pareto front. The
// predictor is keyed by its canonical spec spelling, so permuted
// parameter orders coalesce to one evaluation.
func (c Config) Key() string {
	return fmt.Sprintf("dse|%s|pred=%s|k=%d|banks=%d|update=%s|ic=%d|dc=%d|sched=%s",
		c.Bench, predict.CanonicalOr(c.Predictor), c.BITEntries, c.BITBanks, c.Update, c.ICacheKB, c.DCacheKB, c.Sched)
}

// Request maps the config onto the serve wire protocol. The request is
// fully explicit (samples, seed, budgets), so a local evaluation and a
// remote daemon normalize to the same simulation.
func (c Config) Request(samples int, seed int64, maxCycles uint64, timeoutMS int64) apitypes.SimRequestV1 {
	return apitypes.SimRequestV1{
		Bench:      c.Bench,
		Predictor:  c.Predictor,
		ASBR:       true,
		BITEntries: c.BITEntries,
		BITBanks:   c.BITBanks,
		Update:     c.Update,
		ICacheKB:   c.ICacheKB,
		DCacheKB:   c.DCacheKB,
		Sched:      c.Sched,
		Samples:    samples,
		Seed:       seed,
		MaxCycles:  maxCycles,
		TimeoutMS:  timeoutMS,
	}
}

// Hardware prices the config's branch-handling structures for the
// area/energy model, derived from the parsed predictor spec: the
// primary counter table becomes PredictorEntries×PredictorBits, and
// TAGE tagged tables / loop trip counters are priced as AuxBits
// (counter + useful + partial-tag bits per tagged entry; tag, trip,
// current, confidence and direction bits per loop entry).
func (c Config) Hardware() power.Hardware {
	h := power.Hardware{
		BITEntries: c.BITEntries,
		BITBanks:   c.BITBanks,
		HasBDT:     true,
	}
	s, err := predict.ParseSpec(c.Predictor)
	if err != nil {
		return h // Normalize rejects unparseable specs before pricing matters
	}
	const (
		tageEntryBits = 3 + 2 // signed counter + useful bits, plus the tag below
		loopEntryBits = 32 + 16 + 16 + 4 + 1
	)
	h.BTBEntries = s.Param("btb", 0)
	switch s.Family {
	case "nottaken":
	case "bimodal":
		h.PredictorEntries, h.PredictorBits = s.Param("entries", 0), 2
	case "gshare":
		h.PredictorEntries, h.PredictorBits = s.Param("entries", 0), 2
		h.HistoryBits = s.Param("hist", 0)
	case "tage":
		h.PredictorEntries, h.PredictorBits = s.Param("base", 0), 2
		h.HistoryBits = s.Param("hist", 0)
		h.AuxBits = s.Param("tables", 0) * s.Param("entries", 0) * (tageEntryBits + s.Param("tag", 0))
	case "loop":
		h.PredictorEntries, h.PredictorBits = s.Param("base", 0), 2
		h.AuxBits = s.Param("entries", 0) * loopEntryBits
	case "tageloop":
		h.PredictorEntries, h.PredictorBits = s.Param("base", 0), 2
		h.HistoryBits = s.Param("hist", 0)
		h.AuxBits = s.Param("tables", 0)*s.Param("entries", 0)*(tageEntryBits+s.Param("tag", 0)) +
			s.Param("loops", 0)*loopEntryBits
	}
	return h
}

// axes enumerates the mutable axes in a fixed order; both Neighbors
// and Mutate draw from it, so the proposal order (and with it the
// seeded search trajectory) is deterministic. BIT capacity leads: it
// is the paper's own headline knob, and its downward step is the
// first place oversized defaults get caught.
type axis struct {
	name string
	get  func(*Config) int  // index on the axis ladder
	set  func(*Config, int) // write the ladder value at index
	len  int                // ladder length
}

func (c Config) axes() []axis {
	idx := func(v int, ladder []int) int {
		for i, l := range ladder {
			if l == v {
				return i
			}
		}
		return -1
	}
	idxS := func(v string, ladder []string) int {
		for i, l := range ladder {
			if l == v {
				return i
			}
		}
		return -1
	}
	scheds := workload.SchedLevels()
	return []axis{
		{"bit_entries", func(c *Config) int { return idx(c.BITEntries, bitLadder) },
			func(c *Config, i int) { c.BITEntries = bitLadder[i] }, len(bitLadder)},
		{"predictor", func(c *Config) int { return idxS(predict.CanonicalOr(c.Predictor), predCanon) },
			func(c *Config, i int) { c.Predictor = predLadder[i] }, len(predLadder)},
		{"update", func(c *Config) int { return idxS(c.Update, updateLadder) },
			func(c *Config, i int) { c.Update = updateLadder[i] }, len(updateLadder)},
		{"icache_kb", func(c *Config) int { return idx(c.ICacheKB, cacheLadder) },
			func(c *Config, i int) { c.ICacheKB = cacheLadder[i] }, len(cacheLadder)},
		{"dcache_kb", func(c *Config) int { return idx(c.DCacheKB, cacheLadder) },
			func(c *Config, i int) { c.DCacheKB = cacheLadder[i] }, len(cacheLadder)},
		{"sched", func(c *Config) int { return idxS(c.Sched, scheds) },
			func(c *Config, i int) { c.Sched = scheds[i] }, len(scheds)},
		{"bit_banks", func(c *Config) int { return idx(c.BITBanks, bankLadder) },
			func(c *Config, i int) { c.BITBanks = bankLadder[i] }, len(bankLadder)},
	}
}

// Neighbors returns the configs one ladder step away on each axis, in
// the fixed axis order (down step before up step). The deterministic
// enumeration order is part of the search's parallel-invariance
// argument: a hill-climb round proposes this exact list, whatever the
// worker count.
func (c Config) Neighbors() []Config {
	var out []Config
	for _, ax := range c.axes() {
		i := ax.get(&c)
		if i < 0 {
			continue
		}
		for _, j := range []int{i - 1, i + 1} {
			if j < 0 || j >= ax.len {
				continue
			}
			n := c
			ax.set(&n, j)
			out = append(out, n)
		}
	}
	return out
}

// Mutate returns a copy with one random axis moved to a random other
// rung — the generational mode's proposal operator. The rng is the
// search's single seeded stream, consumed only on the (serial) search
// goroutine, which keeps mutation deterministic at any worker count.
func (c Config) Mutate(rng *rand.Rand) Config {
	ax := c.axes()
	for {
		a := ax[rng.Intn(len(ax))]
		i := a.get(&c)
		if i < 0 || a.len < 2 {
			continue
		}
		j := rng.Intn(a.len - 1)
		if j >= i {
			j++
		}
		n := c
		a.set(&n, j)
		return n
	}
}
