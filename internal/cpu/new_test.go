package cpu_test

import (
	"bytes"
	"runtime"
	"testing"

	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/workload"
)

// TestNewLoadsImage checks that a new machine's memory reads back the
// program's data segment byte for byte and every text word. New skips
// the all-zero pages of the data image, so this holds only because an
// absent page reads as zero.
func TestNewLoadsImage(t *testing.T) {
	progs := make(map[string]*isa.Program)
	for _, name := range workload.Names() {
		prog, err := workload.Build(name, true)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		progs[name] = prog
	}
	src, err := corpus.Generate(11, corpus.Knobs{LoopDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if progs["generated"], err = corpus.BuildSource(src, true, true); err != nil {
		t.Fatalf("build generated program: %v", err)
	}
	for name, prog := range progs {
		c, err := cpu.New(engCfg(cpu.EngineAuto), prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := c.Mem().LoadBytes(prog.DataBase, len(prog.Data)); !bytes.Equal(got, prog.Data) {
			t.Errorf("%s: data segment (%d bytes at 0x%x) does not read back", name, len(prog.Data), prog.DataBase)
		}
		for i, w := range prog.Text {
			addr := prog.TextBase + uint32(4*i)
			if got := c.Mem().LoadWord(addr); got != w {
				t.Fatalf("%s: text word at 0x%x reads 0x%08x, want 0x%08x", name, addr, got, w)
			}
		}
	}
}

// TestNewAllocs bounds what building a machine of the served platform
// allocates, with a shared predecode table: about 17 allocations and
// 37–41 KB for ADPCM and G.721, 16 KB of it the 2048-entry BTB. A slice
// per cache set (256 allocations) or a copy of the zero pages of the
// data image (25 pages, 100 KB, for ADPCM) fails it.
func TestNewAllocs(t *testing.T) {
	const maxAllocs, maxBytes, runs = 30, 64 << 10, 20
	cfg, err := corpus.MachineFor(corpus.MachineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{workload.ADPCMEncode, workload.G721Encode} {
		prog, err := workload.Build(name, true)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		cfg := cfg
		cfg.Predecoded = cpu.Predecode(prog)
		build := func() {
			if _, err := cpu.New(cfg, prog); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(runs, build)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
		if allocs > maxAllocs || bytesPer > maxBytes {
			t.Errorf("%s: cpu.New made %v allocations of %d bytes, want at most %d and %d",
				name, allocs, bytesPer, maxAllocs, maxBytes)
		}
	}
}
