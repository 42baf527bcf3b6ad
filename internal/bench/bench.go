// Package bench defines the asbr-bench/v2 throughput-report wire
// format: the single-document JSON schema behind BENCH_cpu.json and
// the checked-in BENCH_baseline.json, plus the host-portable
// regression comparison the CI gate runs. It follows the same
// strictness conventions as the asbr-corpus/v1 and asbr-replay/v1
// formats in internal/corpus — an explicit schema tag, exact-version
// matching, and unknown-field rejection — so a stale or hand-mangled
// baseline fails loudly instead of silently gating nothing.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Schema identifies the report format. Unlike the JSONL corpus
// formats, a bench report is one JSON document, so the tag lives in
// the document itself rather than on a header line.
const Schema = "asbr-bench/v2"

// EngineResult is one engine's measurement on one benchmark. The
// wall-clock fields (ns/instr, cycles/sec) are host-specific and
// never gated; the per-run cycle, instruction, and allocation counts
// are deterministic.
type EngineResult struct {
	NsPerInstr   float64 `json:"ns_per_instr"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
	Cycles       uint64  `json:"cycles"`       // per run
	Instructions uint64  `json:"instructions"` // per run
}

// Result carries the three engines' measurements on one benchmark.
// Both speedups are over the reference engine and are ratios of
// same-host medians, so they transfer between machines.
type Result struct {
	Name       string       `json:"name"`
	Fast       EngineResult `json:"fast"`
	Superblock EngineResult `json:"superblock"`
	Reference  EngineResult `json:"reference"`
	// FastSpeedup is reference ns/instr over fast ns/instr.
	FastSpeedup float64 `json:"fast_speedup"`
	// SuperblockSpeedup is reference ns/instr over superblock ns/instr.
	SuperblockSpeedup float64 `json:"superblock_speedup"`
}

// Report is one asbr-bench/v2 document.
type Report struct {
	Schema     string   `json:"schema"` // must equal the package Schema
	GoVersion  string   `json:"go_version"`
	Iterations int      `json:"iterations"`
	Samples    int      `json:"samples"`
	Benchmarks []Result `json:"benchmarks"`
	// GeomeanFast / GeomeanSuperblock are the geometric means of the
	// per-benchmark speedups over the reference engine.
	GeomeanFast       float64 `json:"geomean_fast_speedup"`
	GeomeanSuperblock float64 `json:"geomean_superblock_speedup"`
}

// Validate checks the report's structural invariants.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("bench: unsupported schema %q (want %s)", r.Schema, Schema)
	}
	if r.Iterations <= 0 || r.Samples <= 0 {
		return fmt.Errorf("bench: non-positive iterations (%d) or samples (%d)", r.Iterations, r.Samples)
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("bench: report has no benchmarks")
	}
	seen := make(map[string]bool, len(r.Benchmarks))
	for i, b := range r.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("bench: benchmark %d has no name", i)
		}
		if seen[b.Name] {
			return fmt.Errorf("bench: duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.FastSpeedup <= 0 || b.SuperblockSpeedup <= 0 {
			return fmt.Errorf("bench: %s: non-positive speedup", b.Name)
		}
	}
	return nil
}

// Finalize recomputes the geometric-mean speedups from the
// per-benchmark results. Encoders call it so the aggregate fields can
// never drift from the rows they summarize.
func (r *Report) Finalize() {
	var logFast, logSuper float64
	for _, b := range r.Benchmarks {
		logFast += math.Log(b.FastSpeedup)
		logSuper += math.Log(b.SuperblockSpeedup)
	}
	n := float64(len(r.Benchmarks))
	if n > 0 {
		r.GeomeanFast = math.Exp(logFast / n)
		r.GeomeanSuperblock = math.Exp(logSuper / n)
	}
}

// Encode validates and writes the report as indented JSON with a
// trailing newline.
func Encode(w io.Writer, r *Report) error {
	r.Schema = Schema
	r.Finalize()
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// Decode parses one asbr-bench/v2 document with the same strictness
// as the corpus formats: unknown fields are rejected, the schema tag
// must match exactly, and the result must validate. Reports written
// before the format was versioned carry no schema tag and are
// rejected with a regeneration hint.
func Decode(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: %v", err)
	}
	if rep.Schema == "" {
		return nil, fmt.Errorf("bench: missing schema tag (want %s) — regenerate with asbr-bench", Schema)
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	// Reject trailing garbage after the document.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("bench: trailing data after report")
	}
	return &rep, nil
}

// ReadFile loads and validates an asbr-bench/v2 report from path.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

// WriteFile validates and writes the report to path.
func WriteFile(path string, r *Report) error {
	var buf bytes.Buffer
	if err := Encode(&buf, r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Regressions lists every host-portable metric of cur that is more
// than threshold worse than base. Wall-clock metrics are recorded in
// the report but never gated — they do not transfer between machines;
// the speedup ratios do (both engines run on the same host, so host
// speed cancels), as do the deterministic allocation counts.
func Regressions(base, cur *Report, threshold float64) []string {
	byName := make(map[string]Result, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		byName[b.Name] = b
	}
	var regs []string
	for _, b := range base.Benchmarks {
		c, ok := byName[b.Name]
		if !ok {
			regs = append(regs, fmt.Sprintf("%s: missing from current report", b.Name))
			continue
		}
		if c.FastSpeedup < b.FastSpeedup*(1-threshold) {
			regs = append(regs, fmt.Sprintf("%s: fast speedup %.2fx, baseline %.2fx (>%.0f%% drop)",
				b.Name, c.FastSpeedup, b.FastSpeedup, 100*threshold))
		}
		if c.SuperblockSpeedup < b.SuperblockSpeedup*(1-threshold) {
			regs = append(regs, fmt.Sprintf("%s: superblock speedup %.2fx, baseline %.2fx (>%.0f%% drop)",
				b.Name, c.SuperblockSpeedup, b.SuperblockSpeedup, 100*threshold))
		}
		// Allocation counts are deterministic; allow the relative
		// threshold plus a tiny absolute slack for runtime-internal
		// allocations that land in the timed window.
		if c.Fast.AllocsPerRun > b.Fast.AllocsPerRun*(1+threshold)+16 {
			regs = append(regs, fmt.Sprintf("%s: fast engine %.0f allocs/run, baseline %.0f",
				b.Name, c.Fast.AllocsPerRun, b.Fast.AllocsPerRun))
		}
		if c.Superblock.AllocsPerRun > b.Superblock.AllocsPerRun*(1+threshold)+16 {
			regs = append(regs, fmt.Sprintf("%s: superblock engine %.0f allocs/run, baseline %.0f",
				b.Name, c.Superblock.AllocsPerRun, b.Superblock.AllocsPerRun))
		}
	}
	// The aggregate gates catch a broad erosion that stays under the
	// per-benchmark threshold on every row.
	if cur.GeomeanFast < base.GeomeanFast*(1-threshold) {
		regs = append(regs, fmt.Sprintf("geomean fast speedup %.2fx, baseline %.2fx",
			cur.GeomeanFast, base.GeomeanFast))
	}
	if cur.GeomeanSuperblock < base.GeomeanSuperblock*(1-threshold) {
		regs = append(regs, fmt.Sprintf("geomean superblock speedup %.2fx, baseline %.2fx",
			cur.GeomeanSuperblock, base.GeomeanSuperblock))
	}
	return regs
}
