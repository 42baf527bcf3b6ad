package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenReport is the canonical fixture: two benchmarks with
// hand-picked round numbers so a human can re-derive every aggregate.
func goldenReport() *Report {
	return &Report{
		Schema:     Schema,
		GoVersion:  "go1.24.0",
		Iterations: 5,
		Samples:    4096,
		Benchmarks: []Result{
			{
				Name:              "adpcm-enc",
				Fast:              EngineResult{NsPerInstr: 50, CyclesPerSec: 2.4e7, AllocsPerRun: 300, BytesPerRun: 150000, Cycles: 389093, Instructions: 320247},
				Superblock:        EngineResult{NsPerInstr: 25, CyclesPerSec: 4.8e7, AllocsPerRun: 300, BytesPerRun: 150000, Cycles: 389093, Instructions: 320247},
				Reference:         EngineResult{NsPerInstr: 100, CyclesPerSec: 1.2e7, AllocsPerRun: 340000, BytesPerRun: 2.6e7, Cycles: 389093, Instructions: 320247},
				FastSpeedup:       2,
				SuperblockSpeedup: 4,
			},
			{
				Name:              "g721-enc",
				Fast:              EngineResult{NsPerInstr: 40, CyclesPerSec: 4e7, AllocsPerRun: 400, BytesPerRun: 200000, Cycles: 2486305, Instructions: 1937643},
				Superblock:        EngineResult{NsPerInstr: 20, CyclesPerSec: 8e7, AllocsPerRun: 400, BytesPerRun: 200000, Cycles: 2486305, Instructions: 1937643},
				Reference:         EngineResult{NsPerInstr: 90, CyclesPerSec: 1.6e7, AllocsPerRun: 500000, BytesPerRun: 4e7, Cycles: 2486305, Instructions: 1937643},
				FastSpeedup:       2.25,
				SuperblockSpeedup: 4.5,
			},
		},
	}
}

const goldenPath = "testdata/golden_v2.json"

// TestGoldenRoundTrip pins the wire format: encoding the canonical
// fixture must reproduce the checked-in golden file byte for byte, and
// decoding the golden file must reproduce the fixture. Run with
// BENCH_GOLDEN_UPDATE=1 to regenerate after a deliberate schema
// change (which should also bump the version tag).
func TestGoldenRoundTrip(t *testing.T) {
	want := goldenReport()
	var buf bytes.Buffer
	if err := Encode(&buf, want); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if os.Getenv("BENCH_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with BENCH_GOLDEN_UPDATE=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("encoded report differs from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, buf.Bytes(), golden)
	}
	dec, err := Decode(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if !reflect.DeepEqual(dec, want) {
		t.Errorf("decoded golden != fixture:\ngot  %+v\nwant %+v", dec, want)
	}
}

// TestFinalizeGeomeans: Encode recomputes the aggregates, so stale or
// absent geomeans in the input never survive to the wire.
func TestFinalizeGeomeans(t *testing.T) {
	r := goldenReport()
	r.GeomeanFast, r.GeomeanSuperblock = 99, 99
	var buf bytes.Buffer
	if err := Encode(&buf, r); err != nil {
		t.Fatalf("encode: %v", err)
	}
	// geomean(2, 2.25) = sqrt(4.5); geomean(4, 4.5) = sqrt(18)
	if got, want := r.GeomeanFast, math.Sqrt(4.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("GeomeanFast = %v, want %v", got, want)
	}
	if got, want := r.GeomeanSuperblock, math.Sqrt(18); math.Abs(got-want) > 1e-12 {
		t.Errorf("GeomeanSuperblock = %v, want %v", got, want)
	}
}

// TestDecodeRejects enumerates the malformed documents the strict
// decoder must refuse.
func TestDecodeRejects(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			name: "unknown-version",
			doc:  strings.Replace(string(golden), Schema, "asbr-bench/v1", 1),
			want: "unsupported schema",
		},
		{
			name: "missing-schema",
			doc:  `{"iterations": 5, "samples": 4096}`,
			want: "missing schema tag",
		},
		{
			name: "unknown-field",
			doc:  strings.Replace(string(golden), `"go_version"`, `"bogus_field": 1, "go_version"`, 1),
			want: "unknown field",
		},
		{
			name: "trailing-garbage",
			doc:  string(golden) + "{}\n",
			want: "trailing data",
		},
		{
			name: "empty-benchmarks",
			doc:  `{"schema": "asbr-bench/v2", "go_version": "go1.24.0", "iterations": 5, "samples": 4096, "benchmarks": [], "geomean_fast_speedup": 1, "geomean_superblock_speedup": 1}`,
			want: "no benchmarks",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("decode accepted %s document", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRegressions: the gate fires on every host-portable metric and
// stays quiet when the current report matches the baseline.
func TestRegressions(t *testing.T) {
	base := goldenReport()
	base.Finalize()

	same := goldenReport()
	same.Finalize()
	if regs := Regressions(base, same, 0.10); len(regs) != 0 {
		t.Errorf("identical reports flagged: %v", regs)
	}

	// Inside the threshold: 5% slower everywhere, slightly more allocs.
	drift := goldenReport()
	for i := range drift.Benchmarks {
		drift.Benchmarks[i].FastSpeedup *= 0.95
		drift.Benchmarks[i].SuperblockSpeedup *= 0.95
		drift.Benchmarks[i].Fast.AllocsPerRun += 10
		drift.Benchmarks[i].Superblock.AllocsPerRun += 10
	}
	drift.Finalize()
	if regs := Regressions(base, drift, 0.10); len(regs) != 0 {
		t.Errorf("within-threshold drift flagged: %v", regs)
	}

	// Improvements never regress.
	better := goldenReport()
	for i := range better.Benchmarks {
		better.Benchmarks[i].FastSpeedup *= 1.5
		better.Benchmarks[i].SuperblockSpeedup *= 1.5
		better.Benchmarks[i].Fast.AllocsPerRun = 10
		better.Benchmarks[i].Superblock.AllocsPerRun = 10
	}
	better.Finalize()
	if regs := Regressions(base, better, 0.10); len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}

	bad := goldenReport()
	bad.Benchmarks[0].FastSpeedup = 1.0       // >10% below 2.0
	bad.Benchmarks[0].SuperblockSpeedup = 2.0 // >10% below 4.0
	bad.Benchmarks[1].Superblock.AllocsPerRun = 5000
	bad.Finalize()
	regs := Regressions(base, bad, 0.10)
	for _, want := range []string{
		"adpcm-enc: fast speedup",
		"adpcm-enc: superblock speedup",
		"g721-enc: superblock engine 5000 allocs/run",
		"geomean fast speedup",
		"geomean superblock speedup",
	} {
		found := false
		for _, r := range regs {
			if strings.Contains(r, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing regression %q in %v", want, regs)
		}
	}

	missing := goldenReport()
	missing.Benchmarks = missing.Benchmarks[:1]
	missing.Finalize()
	regs = Regressions(base, missing, 0.10)
	found := false
	for _, r := range regs {
		if strings.Contains(r, "g721-enc: missing from current report") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing-benchmark regression not reported: %v", regs)
	}
}
