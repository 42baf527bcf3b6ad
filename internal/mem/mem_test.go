package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryBytes(t *testing.T) {
	m := NewMemory()
	if m.LoadByte(0x1234) != 0 {
		t.Fatal("untouched memory not zero")
	}
	m.StoreByte(0x1234, 0xab)
	if m.LoadByte(0x1234) != 0xab {
		t.Fatal("byte write lost")
	}
	// Cross-page word.
	m.StoreWord(0xfff_fffe, 0x11223344)
	if m.LoadWord(0xfff_fffe) != 0x11223344 {
		t.Fatal("cross-page word broken")
	}
}

func TestMemoryWordEndianness(t *testing.T) {
	m := NewMemory()
	m.StoreWord(0x100, 0x11223344)
	if m.LoadByte(0x100) != 0x44 || m.LoadByte(0x103) != 0x11 {
		t.Fatal("not little-endian")
	}
	m.StoreHalf(0x200, 0xbeef)
	if m.LoadHalf(0x200) != 0xbeef || m.LoadByte(0x200) != 0xef {
		t.Fatal("halfword broken")
	}
}

func TestMemoryBulk(t *testing.T) {
	m := NewMemory()
	data := []byte{1, 2, 3, 4, 5}
	m.StoreBytes(0x2000-2, data) // crosses page boundary at 0x2000? (pages are 4K; 0x2000 is one)
	got := m.LoadBytes(0x2000-2, 5)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("bulk mismatch at %d: %v vs %v", i, got, data)
		}
	}
	if m.Footprint() == 0 {
		t.Fatal("footprint zero after writes")
	}
}

// Property: memory behaves like a map from address to last-written byte.
func TestMemoryOracle(t *testing.T) {
	m := NewMemory()
	oracle := make(map[uint32]byte)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 50000; i++ {
		addr := uint32(r.Intn(1 << 20))
		if r.Intn(2) == 0 {
			v := byte(r.Intn(256))
			m.StoreByte(addr, v)
			oracle[addr] = v
		} else if m.LoadByte(addr) != oracle[addr] {
			t.Fatalf("mismatch at 0x%x", addr)
		}
	}
}

// Property: words round-trip through memory.
func TestMemoryWordRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v uint32) bool {
		addr &^= 3
		m.StoreWord(addr, v)
		return m.LoadWord(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 8192, LineBytes: 0, Assoc: 1},
		{SizeBytes: 8192, LineBytes: 24, Assoc: 1},
		{SizeBytes: 8192, LineBytes: 32, Assoc: 0},
		{SizeBytes: 96, LineBytes: 32, Assoc: 2},  // 3 lines, not divisible
		{SizeBytes: 192, LineBytes: 32, Assoc: 1}, // 6 sets, not power of two
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated", cfg)
		}
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("config %+v constructed", cfg)
		}
	}
	if _, err := NewCache(testCfg(1, false)); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func testCfg(assoc int, wb bool) CacheConfig {
	return CacheConfig{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: assoc, HitCycles: 1, MissCycles: 10, WriteBack: wb}
}

func TestCacheHitMiss(t *testing.T) {
	c, _ := NewCache(testCfg(1, false))
	if cyc := c.Access(0, false); cyc != 11 {
		t.Fatalf("cold miss = %d cycles, want 11", cyc)
	}
	if cyc := c.Access(4, false); cyc != 1 {
		t.Fatalf("same-line hit = %d cycles, want 1", cyc)
	}
	if cyc := c.Access(31, false); cyc != 1 {
		t.Fatalf("line-end hit = %d cycles, want 1", cyc)
	}
	if cyc := c.Access(32, false); cyc != 11 {
		t.Fatalf("next-line miss = %d cycles, want 11", cyc)
	}
	s := c.Stats()
	if s.Reads != 4 || s.ReadMisses != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
}

func TestCacheConflictDirectMapped(t *testing.T) {
	c, _ := NewCache(testCfg(1, false)) // 32 sets of 1
	stride := uint32(1024)              // same set, different tag
	c.Access(0, false)
	c.Access(stride, false) // evicts line 0
	if cyc := c.Access(0, false); cyc != 11 {
		t.Fatalf("conflict victim should miss, got %d cycles", cyc)
	}
}

func TestCacheAssocLRU(t *testing.T) {
	c, _ := NewCache(testCfg(2, false)) // 16 sets of 2
	stride := uint32(512)               // maps to same set
	c.Access(0, false)
	c.Access(stride, false)
	c.Access(0, false)        // touch 0: stride becomes LRU
	c.Access(2*stride, false) // evicts stride
	if !c.Contains(0) {
		t.Fatal("line 0 should still be resident (was MRU)")
	}
	if c.Contains(stride) {
		t.Fatal("LRU line should have been evicted")
	}
	if cyc := c.Access(0, false); cyc != 1 {
		t.Fatalf("line 0 access = %d cycles", cyc)
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c, _ := NewCache(testCfg(1, false))
	c.Access(64, true) // write miss: no allocate
	if c.Contains(64) {
		t.Fatal("write-through no-allocate cache allocated on write miss")
	}
	c.Access(64, false) // read miss allocates
	if cyc := c.Access(64, true); cyc != 1 {
		t.Fatalf("write hit = %d cycles", cyc)
	}
	s := c.Stats()
	if s.Writes != 2 || s.WriteMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c, _ := NewCache(testCfg(1, true))
	c.Access(0, true) // write miss, allocate, dirty
	if !c.Contains(0) {
		t.Fatal("write-back cache should allocate on write miss")
	}
	// Evict the dirty line: costs an extra writeback.
	cyc := c.Access(1024, false)
	if cyc != 1+10+10 {
		t.Fatalf("dirty eviction = %d cycles, want 21", cyc)
	}
	if c.Stats().WriteBacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().WriteBacks)
	}
	// Clean eviction has no writeback cost.
	cyc = c.Access(0, false)
	if cyc != 11 {
		t.Fatalf("clean eviction refill = %d cycles, want 11", cyc)
	}
}

func TestCacheReset(t *testing.T) {
	c, _ := NewCache(testCfg(2, true))
	c.Access(0, true)
	c.Reset()
	if c.Contains(0) {
		t.Fatal("Reset left lines resident")
	}
	if c.Stats().Accesses() != 0 {
		t.Fatal("Reset left stats")
	}
}

// Property: a second access to the same address immediately after the
// first is always a hit (temporal locality invariant), for random
// configurations and addresses.
func TestCacheTemporalLocality(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		assoc := 1 << r.Intn(3)
		cfg := CacheConfig{
			Name: "q", SizeBytes: 256 << r.Intn(4), LineBytes: 8 << r.Intn(3),
			Assoc: assoc, HitCycles: 1, MissCycles: 5, WriteBack: true,
		}
		if (cfg.SizeBytes/cfg.LineBytes)%cfg.Assoc != 0 {
			continue
		}
		if n := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc; n&(n-1) != 0 {
			continue
		}
		c, _ := NewCache(cfg)
		for i := 0; i < 2000; i++ {
			addr := uint32(r.Intn(1 << 16))
			c.Access(addr, r.Intn(2) == 0)
			if cyc := c.Access(addr, false); cyc != cfg.HitCycles {
				t.Fatalf("trial %d: re-access of 0x%x cost %d cycles (cfg %+v)", trial, addr, cyc, cfg)
			}
		}
	}
}

// Property: stats counters are consistent: misses <= accesses, and
// every access is classified exactly once.
func TestCacheStatsConsistency(t *testing.T) {
	c, _ := NewCache(testCfg(2, true))
	r := rand.New(rand.NewSource(4))
	n := 10000
	for i := 0; i < n; i++ {
		c.Access(uint32(r.Intn(1<<14)), r.Intn(3) == 0)
	}
	s := c.Stats()
	if s.Accesses() != uint64(n) {
		t.Fatalf("accesses = %d, want %d", s.Accesses(), n)
	}
	if s.Misses() > s.Accesses() {
		t.Fatalf("misses %d > accesses %d", s.Misses(), s.Accesses())
	}
	if s.ReadMisses > s.Reads || s.WriteMisses > s.Writes {
		t.Fatalf("per-class misses exceed accesses: %+v", s)
	}
}

func TestDefaultConfigs(t *testing.T) {
	ic, _ := NewCache(DefaultICache())
	dc, _ := NewCache(DefaultDCache())
	if ic.Config().SizeBytes != 8<<10 || dc.Config().SizeBytes != 8<<10 {
		t.Fatal("paper platform is 8KB I$ + 8KB D$")
	}
	// Working set fits: repeated sweep of 4KB must settle to all hits.
	for pass := 0; pass < 2; pass++ {
		misses := uint64(0)
		before := ic.Stats().Misses()
		for a := uint32(0); a < 4096; a += 4 {
			ic.Access(a, false)
		}
		misses = ic.Stats().Misses() - before
		if pass == 1 && misses != 0 {
			t.Fatalf("second sweep of fitting working set missed %d times", misses)
		}
	}
}

// TestAccountHitsMatchesAccess feeds one fetch-like address stream
// (sequential runs broken by random jumps over a footprint larger than
// the cache) to three caches: one calls Access on every fetch, one
// replaces each same-line repeat with AccountHits(1), and one batches
// the same-line repeats and flushes them when the line changes. The
// hit/miss sequence, the statistics and the final residency must agree.
func TestAccountHitsMatchesAccess(t *testing.T) {
	for _, assoc := range []int{1, 2, 4} {
		cfg := testCfg(assoc, false)
		full, _ := NewCache(cfg)
		each, _ := NewCache(cfg)
		batch, _ := NewCache(cfg)
		line := ^uint32(cfg.LineBytes - 1)
		r := rand.New(rand.NewSource(int64(assoc)))
		var pc, eachLast, batchLast uint32
		known, pending := false, 0
		for i := 0; i < 20000; i++ {
			if r.Intn(8) == 0 {
				pc = uint32(r.Intn(4*cfg.SizeBytes)) &^ 3
			} else {
				pc += 4
			}
			want := full.Access(pc, false)

			got := cfg.HitCycles
			if known && pc&line == eachLast {
				each.AccountHits(1)
			} else {
				got = each.Access(pc, false)
				eachLast = pc & line
			}
			if got != want {
				t.Fatalf("assoc %d fetch %d pc %#x: AccountHits(1) path %d cycles, Access %d", assoc, i, pc, got, want)
			}

			got = cfg.HitCycles
			if known && pc&line == batchLast {
				pending++
			} else {
				batch.AccountHits(pending)
				pending = 0
				got = batch.Access(pc, false)
				batchLast = pc & line
			}
			if got != want {
				t.Fatalf("assoc %d fetch %d pc %#x: batched path %d cycles, Access %d", assoc, i, pc, got, want)
			}
			known = true
		}
		batch.AccountHits(pending)
		for _, c := range []*Cache{each, batch} {
			if c.Stats() != full.Stats() {
				t.Fatalf("assoc %d: stats %+v, want %+v", assoc, c.Stats(), full.Stats())
			}
			for a := uint32(0); a < uint32(4*cfg.SizeBytes); a += uint32(cfg.LineBytes) {
				if c.Contains(a) != full.Contains(a) {
					t.Fatalf("assoc %d: residency of %#x differs", assoc, a)
				}
			}
		}
		if full.Stats().ReadMisses == 0 || full.Stats().ReadMisses == full.Stats().Reads {
			t.Fatalf("assoc %d: degenerate stream, stats %+v", assoc, full.Stats())
		}
	}
}

// TestTryAccess checks that TryAccess is Access on a hit and a no-op on
// a miss: a cache driven by TryAccess-then-Access-on-miss tracks one
// driven by Access alone, and a failed TryAccess changes no statistic.
func TestTryAccess(t *testing.T) {
	for _, wb := range []bool{false, true} {
		cfg := testCfg(2, wb)
		ref, _ := NewCache(cfg)
		c, _ := NewCache(cfg)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 20000; i++ {
			addr := uint32(r.Intn(4 * cfg.SizeBytes))
			write := r.Intn(4) == 0
			resident := ref.Contains(addr)
			want := ref.Access(addr, write)
			before := c.Stats()
			if hit := c.TryAccess(addr, write); hit != resident {
				t.Fatalf("wb=%v access %d: TryAccess hit=%v, line resident=%v", wb, i, hit, resident)
			} else if !hit {
				if c.Stats() != before {
					t.Fatalf("wb=%v access %d: missing TryAccess changed stats %+v -> %+v", wb, i, before, c.Stats())
				}
				if got := c.Access(addr, write); got != want {
					t.Fatalf("wb=%v access %d: Access after TryAccess = %d cycles, want %d", wb, i, got, want)
				}
			} else if want != cfg.HitCycles {
				t.Fatalf("wb=%v access %d: resident line cost %d cycles", wb, i, want)
			}
		}
		if c.Stats() != ref.Stats() {
			t.Fatalf("wb=%v: stats %+v, want %+v", wb, c.Stats(), ref.Stats())
		}
	}
}
