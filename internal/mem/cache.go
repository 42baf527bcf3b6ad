package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string // for reports ("il1", "dl1")
	SizeBytes  int    // total capacity
	LineBytes  int    // line size (power of two)
	Assoc      int    // associativity (1 = direct-mapped)
	HitCycles  int    // access latency on a hit
	MissCycles int    // additional penalty to fill from memory
	WriteBack  bool   // write-back/write-allocate if true, else write-through/no-allocate
}

// DefaultICache mirrors the paper's platform: an 8KB instruction cache.
func DefaultICache() CacheConfig {
	return CacheConfig{Name: "il1", SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2, HitCycles: 1, MissCycles: 8, WriteBack: false}
}

// DefaultDCache mirrors the paper's platform: an 8KB data cache.
func DefaultDCache() CacheConfig {
	return CacheConfig{Name: "dl1", SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2, HitCycles: 1, MissCycles: 8, WriteBack: true}
}

// CacheStats accumulates access statistics.
type CacheStats struct {
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	WriteBacks  uint64
}

// Accesses returns total accesses.
func (s CacheStats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s CacheStats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns the overall miss ratio in [0,1].
func (s CacheStats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

type cacheLine struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64 // last-use timestamp
}

// Cache is a set-associative cache model with LRU replacement. It
// models timing and residency only; data always lives in the backing
// Memory, which keeps the model simple and trivially coherent.
type Cache struct {
	cfg     CacheConfig
	sets    [][]cacheLine
	shift   uint // log2(line size)
	setBits uint // log2(set count)
	mask    uint32
	tick    uint64
	stats   CacheStats
}

// Validate checks the cache geometry: power-of-two line size, positive
// associativity, capacity divisible into a power-of-two number of sets.
func (cfg CacheConfig) Validate() error {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if cfg.Assoc <= 0 {
		return fmt.Errorf("mem: cache %s: bad associativity %d", cfg.Name, cfg.Assoc)
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	if nLines <= 0 || nLines%cfg.Assoc != 0 {
		return fmt.Errorf("mem: cache %s: %d lines not divisible by assoc %d", cfg.Name, nLines, cfg.Assoc)
	}
	nSets := nLines / cfg.Assoc
	if nSets&(nSets-1) != 0 {
		return fmt.Errorf("mem: cache %s: set count %d not a power of two", cfg.Name, nSets)
	}
	return nil
}

// NewCache builds a cache for the given configuration, rejecting
// invalid geometry (non-power-of-two sizes, capacity not divisible by
// line*assoc) with a validation error instead of panicking, so bad
// machine configurations surface as reportable failures at
// construction time (cpu.New).
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	setBits := uint(0)
	for 1<<setBits < nSets {
		setBits++
	}
	sets := make([][]cacheLine, nSets)
	for i := range sets {
		sets[i] = make([]cacheLine, cfg.Assoc)
	}
	return &Cache{cfg: cfg, sets: sets, shift: shift, setBits: setBits, mask: uint32(nSets - 1)}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() CacheStats { return c.stats }

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = cacheLine{}
		}
	}
	c.stats = CacheStats{}
	c.tick = 0
}

// AccountHits records n read hits without touching the line state.
//
// It is exact only under this contract: each skipped access would have
// re-touched the line of the immediately preceding Access with no other
// access in between. Re-touching the most-recently-used line only
// refreshes an LRU stamp that is already the newest in its set, and LRU
// comparisons are relative, so eliding those touches leaves every
// future hit/miss/eviction decision — and therefore every statistic —
// bit-identical.
//
// The simulator's fast and superblock engines rely on it for every
// I-cache fetch (fetch is the I-cache's only client); the reference
// engine calls Access on every fetch, so the engine equivalence tests
// compare the two.
func (c *Cache) AccountHits(n int) {
	c.stats.Reads += uint64(n)
}

// TryAccess performs Access when the line containing addr is resident
// (a hit, costing HitCycles) and reports true. On a miss it reports
// false and leaves the lines, the LRU state and the statistics
// untouched.
func (c *Cache) TryAccess(addr uint32, write bool) bool {
	set, tag := c.lookup(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			c.tick++
			lines[i].lru = c.tick
			if write {
				// A write-through hit also pays only the hit latency
				// (write buffer assumed).
				c.stats.Writes++
				if c.cfg.WriteBack {
					lines[i].dirty = true
				}
			} else {
				c.stats.Reads++
			}
			return true
		}
	}
	return false
}

// Access simulates a read (write=false) or write (write=true) of the
// line containing addr and returns the cycle cost.
func (c *Cache) Access(addr uint32, write bool) int {
	if c.TryAccess(addr, write) {
		return c.cfg.HitCycles
	}
	c.tick++
	set, tag := c.lookup(addr)
	lines := c.sets[set]
	// Miss.
	if write {
		c.stats.Writes++
		c.stats.WriteMisses++
		if !c.cfg.WriteBack {
			// No-allocate: write goes straight through.
			return c.cfg.HitCycles + c.cfg.MissCycles
		}
	} else {
		c.stats.Reads++
		c.stats.ReadMisses++
	}
	// Allocate: fill an invalid way if one exists, else evict the LRU way.
	victim := -1
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if victim < 0 || lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	extra := 0
	if lines[victim].valid && lines[victim].dirty {
		c.stats.WriteBacks++
		extra = c.cfg.MissCycles // write the victim back first
	}
	lines[victim] = cacheLine{tag: tag, valid: true, dirty: write && c.cfg.WriteBack, lru: c.tick}
	return c.cfg.HitCycles + c.cfg.MissCycles + extra
}

// lookup computes (set, tag) for addr.
func (c *Cache) lookup(addr uint32) (uint32, uint32) {
	line := addr >> c.shift
	return line & c.mask, line >> c.setBits
}

// Contains reports whether the line holding addr is resident, without
// touching LRU state or statistics.
func (c *Cache) Contains(addr uint32) bool {
	set, tag := c.lookup(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}
