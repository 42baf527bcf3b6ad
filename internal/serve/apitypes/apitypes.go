// Package apitypes is the single source of truth for the serve
// daemon's wire protocol. Every request/response struct carries an
// explicit V1 suffix — the JSON shapes are frozen per version, so the
// server (internal/serve), the Go client (internal/serve/client) and
// any external consumer marshal exactly the same bytes. internal/serve
// aliases these types under their unversioned names; a future v2 adds
// new types here instead of mutating these.
package apitypes

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"asbr/internal/cpu"
	"asbr/internal/experiment"
	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/runner"
	"asbr/internal/workload"
)

// SimRequestV1 asks for one simulation. Exactly one of Bench and
// Source must be set: Bench runs a built-in MediaBench workload over
// the synthetic input trace (with golden-model output checking),
// Source assembles (or, with Compile, MiniC-compiles) the posted
// program and runs it bare.
type SimRequestV1 struct {
	Bench  string `json:"bench,omitempty"`  // one of workload.Names()
	Source string `json:"source,omitempty"` // assembly or MiniC text

	Compile  bool `json:"compile,omitempty"`  // Source is MiniC, not assembly
	Schedule bool `json:"schedule,omitempty"` // Source mode: run the §5.1 scheduling pass

	Predictor  string `json:"predictor,omitempty"`   // predictor spec family[:k=v,...] or legacy alias (default bimodal)
	ASBR       bool   `json:"asbr,omitempty"`        // profile, select, fold, re-run
	BITEntries int    `json:"bit_entries,omitempty"` // BIT capacity for ASBR (0 = per-bench default)

	// DSE configuration-vector knobs, added after V1 froze: all
	// omitempty, so pre-existing clients marshal unchanged payloads and
	// zero always means the paper-default platform.
	BITBanks int    `json:"bit_banks,omitempty"` // BIT bank count (0 = 1)
	Update   string `json:"update,omitempty"`    // BDT update point ex|mem|wb ("" = mem)
	ICacheKB int    `json:"icache_kb,omitempty"` // I-cache size in KB (0 = the paper's 8)
	DCacheKB int    `json:"dcache_kb,omitempty"` // D-cache size in KB (0 = the paper's 8)
	Sched    string `json:"sched,omitempty"`     // Bench mode: scheduling level none|compiler|full ("" = full)

	Samples int   `json:"samples,omitempty"` // Bench mode: audio samples (default server-side)
	Seed    int64 `json:"seed,omitempty"`    // Bench mode: synthetic-trace seed (default 1)

	MaxCycles uint64 `json:"max_cycles,omitempty"` // watchdog cycle budget (default server-side)
	TimeoutMS int64  `json:"timeout_ms,omitempty"` // wall-clock budget (default server-side)
}

// BuildOptions returns the bench-mode compile options the request's
// scheduling level implies ("" = the historical full scheduling).
// Unknown levels fall back to full — normalization rejects them before
// any keyed or executed path can see one.
func (r *SimRequestV1) BuildOptions() workload.BuildOptions {
	opt, err := workload.BuildOptionsLevel(r.Bench, r.Sched)
	if err != nil {
		return workload.BuildOptionsFor(r.Bench, true)
	}
	return opt
}

// Key returns the request's canonical coalescing key. Program and
// trace identity go through the runner key helpers — the same
// constructors the sweep layer's artifact cache uses — so the two
// layers cannot key the same artifact differently. Every field that
// can change the simulation's outcome is part of the key.
func (r *SimRequestV1) Key() string {
	var b strings.Builder
	b.WriteString("sim|")
	if r.Bench != "" {
		b.WriteString(runner.NewProgramKey(r.Bench, r.BuildOptions()).Canonical())
		b.WriteString("|")
		b.WriteString(runner.NewTraceKey(r.Bench, r.Samples, r.Seed).Canonical())
	} else {
		sum := sha256.Sum256([]byte(r.Source))
		fmt.Fprintf(&b, "src/%s?compile=%t&sched=%t", hex.EncodeToString(sum[:]), r.Compile, r.Schedule)
	}
	// The predictor is keyed by its canonical spec spelling so that
	// permuted parameter orders and bare-vs-explicit forms (e.g.
	// "tage:hist=64,tables=4" vs "tage:tables=4,hist=64" vs "tage")
	// coalesce to one cache entry.
	fmt.Fprintf(&b, "|pred=%s|asbr=%t|k=%d|banks=%d|update=%s|ic=%d|dc=%d|maxcycles=%d|timeout=%d",
		predict.CanonicalOr(r.Predictor), r.ASBR, r.BITEntries, r.BITBanks, r.Update, r.ICacheKB, r.DCacheKB, r.MaxCycles, r.TimeoutMS)
	return b.String()
}

// Timeout returns the request's wall-clock budget.
func (r *SimRequestV1) Timeout() time.Duration {
	return time.Duration(r.TimeoutMS) * time.Millisecond
}

// SimStatsV1 is the wire form of the simulation statistics a client
// typically dashboards; the full cpu.Stats stays server-side. It is an
// alias of the canonical cross-layer record obs.Snapshot — the same
// shape the experiment rows embed and GET /v1/stats aggregates — so
// the three historical per-layer stats structs stay collapsed into
// one. The original V1 field set and tags are frozen by the round-trip
// suite; fields added since (dir_mispredicts, folded_taken,
// fold_coverage) are omitempty, so V1 payloads are unchanged when they
// are zero.
type SimStatsV1 = obs.Snapshot

// EncodeStats projects the simulator's full counter set onto the wire
// statistics.
func EncodeStats(st cpu.Stats) SimStatsV1 { return st.Snapshot() }

// SimResponseV1 is one finished simulation.
type SimResponseV1 struct {
	Bench      string     `json:"bench,omitempty"`
	Predictor  string     `json:"predictor"`
	ASBR       bool       `json:"asbr,omitempty"`
	BITEntries int        `json:"bit_entries,omitempty"` // branches actually loaded into the BIT
	Samples    int        `json:"samples,omitempty"`
	Seed       int64      `json:"seed,omitempty"`
	Stats      SimStatsV1 `json:"stats"`

	// ASBR mode: the profiled baseline run's cycles and the relative
	// improvement of the folded run.
	BaselineCycles uint64  `json:"baseline_cycles,omitempty"`
	Improvement    float64 `json:"improvement,omitempty"`

	// Bench mode: whether the simulated output matched the golden
	// reference model bit-exactly.
	OutputOK *bool `json:"output_ok,omitempty"`

	// Source mode: the program's syscall output stream.
	Output   []int32 `json:"output,omitempty"`
	ExitCode int32   `json:"exit_code"`
}

// SweepRequestV1 asks for experiment tables (the asbr-tables workload).
// Benches restricts the per-benchmark tables (fig6, fig11, power,
// faults) to a subset of workload.Names() — the cluster coordinator
// uses it to fan one (table, benchmark) cell out per worker; rows for a
// benchmark are identical whether it runs filtered or inside the full
// sweep, which is what makes the distributed merge byte-identical.
// Empty means all benchmarks (the historical wire shape is unchanged).
type SweepRequestV1 struct {
	Tables    []string `json:"tables,omitempty"`     // table names, or empty/"all" for every table
	Benches   []string `json:"benches,omitempty"`    // benchmark filter for per-bench tables (empty = all)
	Samples   int      `json:"samples,omitempty"`    // audio samples per benchmark
	Seed      int64    `json:"seed,omitempty"`       // synthetic-trace seed
	Update    string   `json:"update,omitempty"`     // BDT update point: ex|mem|wb
	Parallel  int      `json:"parallel,omitempty"`   // worker cap (results are parallel-invariant)
	MaxCycles uint64   `json:"max_cycles,omitempty"` // per-simulation watchdog budget
	TimeoutMS int64    `json:"timeout_ms,omitempty"` // per-simulation wall-clock budget
}

// Key returns the canonical coalescing key. Parallel is deliberately
// excluded: the experiment engine's determinism contract makes sweep
// output invariant under the worker count, so requests that differ
// only in parallelism coalesce onto one run. The bench filter rides
// through the canonical runner program keys, the same constructors the
// artifact cache uses.
func (r *SweepRequestV1) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep|tables=%s|n=%d|seed=%d|update=%s|maxcycles=%d|timeout=%d",
		strings.Join(r.Tables, ","), r.Samples, r.Seed, r.Update, r.MaxCycles, r.TimeoutMS)
	for _, bench := range r.Benches {
		b.WriteString("|")
		b.WriteString(runner.NewProgramKey(bench, workload.BuildOptionsFor(bench, true)).Canonical())
	}
	return b.String()
}

// Options converts a normalized request into experiment options.
func (r *SweepRequestV1) Options() experiment.Options {
	opt := experiment.Options{
		Samples:   r.Samples,
		Seed:      r.Seed,
		Benches:   r.Benches,
		Parallel:  r.Parallel,
		MaxCycles: r.MaxCycles,
		Timeout:   time.Duration(r.TimeoutMS) * time.Millisecond,
	}
	switch r.Update {
	case "ex":
		opt.Update = cpu.StageEX
	case "wb":
		opt.Update = cpu.StageWB
	default:
		opt.Update = cpu.StageMEM
	}
	return opt
}

// JobRequestV1 is an async submission: exactly one of Sim and Sweep.
// Trace (sim jobs only) additionally records a pipeline event trace,
// retrievable at GET /v1/jobs/{id}/trace once the job finishes; traced
// runs bypass the coalescing cache so the trace belongs to this
// submission's own execution. Trace fields are deliberately NOT part
// of SimRequestV1.Key: tracing must never change what coalesces.
type JobRequestV1 struct {
	Sim   *SimRequestV1   `json:"sim,omitempty"`
	Sweep *SweepRequestV1 `json:"sweep,omitempty"`

	Trace       bool   `json:"trace,omitempty"`
	TraceSample uint64 `json:"trace_sample,omitempty"` // keep every Nth event (0/1 = all)
}

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatusV1 is an async job's state and, once finished, its result
// or structured error.
type JobStatusV1 struct {
	ID    string                 `json:"id"`
	Kind  string                 `json:"kind"` // sim | sweep
	State string                 `json:"state"`
	Sim   *SimResponseV1         `json:"sim,omitempty"`
	Sweep *experiment.TablesJSON `json:"sweep,omitempty"`
	Error *ErrorBodyV1           `json:"error,omitempty"`
}

// HealthzV1 is the liveness response.
type HealthzV1 struct {
	Status        string `json:"status"` // ok | draining
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Workers       int    `json:"workers"`
}

// ReadyzV1 is the readiness response (GET /v1/readyz) — distinct from
// liveness: a daemon that is alive but draining, or whose bounded queue
// is saturated, answers not-ready (503) so cluster coordinators and
// load balancers stop routing new work to it while it recovers.
type ReadyzV1 struct {
	Ready         bool   `json:"ready"`
	Status        string `json:"status"`              // ok | draining | saturated
	WorkerID      string `json:"worker_id,omitempty"` // -worker-id label, for fleet provenance
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
}

// TraceEventV1 is one pipeline event on the wire — an alias of
// obs.Event, whose JSON shape (string kind names, omitempty operands)
// is the same asbr-trace/v1 schema the CLI's JSONL files use.
type TraceEventV1 = obs.Event

// TraceV1 is a finished job's recorded pipeline event trace
// (GET /v1/jobs/{id}/trace). Counts and Total are exact pre-sampling
// figures; Events holds the retained (possibly sampled) stream.
type TraceV1 struct {
	JobID   string            `json:"job_id"`
	Sample  uint64            `json:"sample"`
	Total   uint64            `json:"total"`
	Dropped uint64            `json:"dropped,omitempty"`
	Counts  map[string]uint64 `json:"counts"`
	Events  []TraceEventV1    `json:"events"`
}

// StatsV1 is the service-lifetime statistics response
// (GET /v1/stats): the accumulated Snapshot over every simulation the
// daemon executed (coalesced cache hits count once, at build time),
// plus service-level counters. Fold coverage — the paper's central §4
// metric — is Totals.FoldCoverage.
type StatsV1 struct {
	Totals        obs.Snapshot `json:"totals"`
	SimRuns       uint64       `json:"sim_runs"`
	SweepRuns     uint64       `json:"sweep_runs"`
	JobsSubmitted uint64       `json:"jobs_submitted"`
	JobsCompleted uint64       `json:"jobs_completed"`
	QueueDepth    int          `json:"queue_depth"`
	QueueCapacity int          `json:"queue_capacity"`
	Workers       int          `json:"workers"`
}

// ErrorBodyV1 is the structured error every endpoint returns, wrapped
// in an {"error": ...} envelope. Code is stable: for simulation
// failures it is the *cpu.SimError code string (cycle-limit,
// bad-opcode, ...) so clients dispatch on the failure class without
// parsing messages; service-level failures use the serve package's
// codes.
type ErrorBodyV1 struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	PC      uint32 `json:"pc,omitempty"`    // faulting address (simulation errors)
	Cycle   uint64 `json:"cycle,omitempty"` // cycle at the failure (simulation errors)
}

// EncodeSimError projects a structured simulation error onto the wire
// body. The {code, pc, cycle} triple survives losslessly; Message
// carries the full rendered error (including Detail) for humans.
func EncodeSimError(se *cpu.SimError) ErrorBodyV1 {
	return ErrorBodyV1{
		Code:    se.Code.String(),
		Message: se.Error(),
		PC:      se.PC,
		Cycle:   se.Cycle,
	}
}

// SimError re-materializes the typed *cpu.SimError a coordinator needs
// for retry classification. The second result is false when the body
// carries a service-level code (backpressure, draining, ...) rather
// than a simulation failure. EncodeSimError followed by SimError
// round-trips the {code, pc, cycle} structure exactly; Detail collapses
// into the rendered message, which is all the wire ever carried.
func (b ErrorBodyV1) SimError() (*cpu.SimError, bool) {
	code, ok := cpu.ParseErrCode(b.Code)
	if !ok {
		return nil, false
	}
	return &cpu.SimError{Code: code, PC: b.PC, Cycle: b.Cycle, Detail: b.Message}, true
}
