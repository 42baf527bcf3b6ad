// Package serve is the simulation-as-a-service layer: an HTTP/JSON
// daemon (stdlib only) that exposes the cycle-accurate simulator and
// the experiment engine behind a bounded job queue with single-flight
// request coalescing, structured *cpu.SimError reporting, Prometheus
// text metrics, and graceful drain.
//
// Endpoints:
//
//	POST /v1/sim             assemble-or-load a program, simulate, return stats
//	POST /v1/sweep           run experiment tables, return their JSON encoding
//	POST /v1/jobs            async submission of a sim or sweep (trace opt-in)
//	GET  /v1/jobs/{id}       job status and result
//	GET  /v1/jobs/{id}/trace recorded pipeline event trace of a traced job
//	GET  /v1/stats           service-lifetime simulation totals (obs.Snapshot)
//	GET  /v1/healthz         liveness and queue state
//	GET  /metrics            Prometheus text counters (obs registry)
//	GET  /debug/pprof/       runtime profiling endpoints
//
// Coalescing: requests are keyed canonically (internal/runner key
// helpers plus a source hash) and deduplicated through a keyed
// once-cache — two identical concurrent requests run exactly one
// simulation, and because the simulator is deterministic, completed
// results are served from the cache forever after. Admission control
// (the bounded queue, 429 on overflow) happens before a request may
// start new work; a request whose key is already present joins the
// existing entry without consuming a queue slot.
//
// The wire structs live in internal/serve/apitypes under versioned V1
// names; this package aliases them, so the server, the Go client and
// the type definitions cannot drift apart. Request normalization
// (defaults + validation against the server's limits) stays here —
// it needs the server Config and the service error vocabulary.
package serve

import (
	"strings"

	"asbr/internal/experiment"
	"asbr/internal/predict"
	"asbr/internal/serve/apitypes"
	"asbr/internal/workload"
)

// Wire types, aliased from the versioned protocol package.
type (
	SimRequest   = apitypes.SimRequestV1
	SimResponse  = apitypes.SimResponseV1
	SweepRequest = apitypes.SweepRequestV1
	JobRequest   = apitypes.JobRequestV1
	JobStatus    = apitypes.JobStatusV1
	Healthz      = apitypes.HealthzV1
	Readyz       = apitypes.ReadyzV1
	ErrorBody    = apitypes.ErrorBodyV1
	Trace        = apitypes.TraceV1
	ServiceStats = apitypes.StatsV1
)

// Job states.
const (
	JobQueued  = apitypes.JobQueued
	JobRunning = apitypes.JobRunning
	JobDone    = apitypes.JobDone
	JobFailed  = apitypes.JobFailed
)

// encodeStats projects cpu.Stats onto the wire statistics.
var encodeStats = apitypes.EncodeStats

// normalizeSim fills defaults in place and validates the request
// against the server's limits.
func normalizeSim(r *SimRequest, cfg Config) error {
	if (r.Bench == "") == (r.Source == "") {
		return badRequest("exactly one of bench and source must be set")
	}
	if r.Bench != "" {
		ok := false
		for _, n := range workload.Names() {
			if r.Bench == n {
				ok = true
				break
			}
		}
		if !ok {
			return badRequest("unknown bench %q (want %s)", r.Bench, strings.Join(workload.Names(), "|"))
		}
	}
	if r.Predictor == "" {
		r.Predictor = "bimodal"
	}
	// Any spec the predict registry resolves is accepted; an unknown
	// family or bad parameter is a structured 400 whose message
	// enumerates every family with its parameters and defaults.
	if _, err := predict.ParseSpec(r.Predictor); err != nil {
		return badRequest("%v", err)
	}
	if r.Samples < 0 || r.Samples > cfg.MaxSamples {
		return badRequest("samples %d out of range [0, %d]", r.Samples, cfg.MaxSamples)
	}
	if r.Samples == 0 {
		r.Samples = cfg.DefaultSamples
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.BITEntries < 0 {
		return badRequest("bit_entries must be >= 0")
	}
	if r.BITBanks < 0 {
		return badRequest("bit_banks must be >= 0")
	}
	if r.BITBanks > 0 && (r.BITBanks&(r.BITBanks-1) != 0 || r.BITBanks > 8) {
		return badRequest("bit_banks %d must be a power of two <= 8", r.BITBanks)
	}
	switch strings.ToLower(r.Update) {
	case "":
		// Zero means the paper default; keep it empty so pre-existing
		// clients' keys and records are unchanged.
	case "ex", "mem", "wb":
		r.Update = strings.ToLower(r.Update)
	default:
		return badRequest("unknown update point %q (want ex|mem|wb)", r.Update)
	}
	for _, c := range []struct {
		name string
		kb   int
	}{{"icache_kb", r.ICacheKB}, {"dcache_kb", r.DCacheKB}} {
		if c.kb < 0 {
			return badRequest("%s must be >= 0", c.name)
		}
		if c.kb > 0 && (c.kb&(c.kb-1) != 0 || c.kb > 64) {
			return badRequest("%s %d must be a power of two <= 64", c.name, c.kb)
		}
	}
	switch r.Sched {
	case "", workload.SchedNone, workload.SchedCompiler, workload.SchedFull:
	default:
		return badRequest("unknown sched level %q (want %s)", r.Sched, strings.Join(workload.SchedLevels(), "|"))
	}
	if r.Sched != "" && r.Bench == "" {
		return badRequest("sched applies to bench requests only (source requests use schedule)")
	}
	if r.MaxCycles == 0 {
		r.MaxCycles = cfg.DefaultMaxCycles
	}
	if r.TimeoutMS < 0 {
		return badRequest("timeout_ms must be >= 0")
	}
	if r.TimeoutMS == 0 {
		r.TimeoutMS = cfg.DefaultTimeout.Milliseconds()
	}
	return nil
}

// normalizeSweep fills defaults in place and validates the request
// against the server's limits.
func normalizeSweep(r *SweepRequest, cfg Config) error {
	sel, err := experiment.NormalizeTableNames(r.Tables)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Tables = sel
	benches, err := experiment.NormalizeBenchNames(r.Benches)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Benches = benches
	if r.Samples < 0 || r.Samples > cfg.MaxSamples {
		return badRequest("samples %d out of range [0, %d]", r.Samples, cfg.MaxSamples)
	}
	if r.Samples == 0 {
		r.Samples = cfg.DefaultSamples
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	switch strings.ToLower(r.Update) {
	case "", "mem":
		r.Update = "mem"
	case "ex":
		r.Update = "ex"
	case "wb":
		r.Update = "wb"
	default:
		return badRequest("unknown update point %q (want ex|mem|wb)", r.Update)
	}
	if r.Parallel < 0 {
		return badRequest("parallel must be >= 0")
	}
	if r.Parallel == 0 || (cfg.SweepParallel > 0 && r.Parallel > cfg.SweepParallel) {
		r.Parallel = cfg.SweepParallel
	}
	if r.MaxCycles == 0 {
		r.MaxCycles = cfg.DefaultMaxCycles
	}
	if r.TimeoutMS < 0 {
		return badRequest("timeout_ms must be >= 0")
	}
	if r.TimeoutMS == 0 {
		r.TimeoutMS = cfg.DefaultTimeout.Milliseconds()
	}
	return nil
}
