package cpu

// Caps is the capability vocabulary of the engine-selection API: each
// field names one way a caller can demand cycle-by-cycle visibility
// into (or influence over) the pipeline. The superblock engine's fused
// loops batch-advance whole cycles without running the per-cycle
// stages' hooks, so they can honor none of them — any set capability
// makes SelectEngine fall back to the fast engine, whose per-cycle
// stages support them all.
//
// The ASBR unit (Config.Fold), with any mutation policy installed on
// it, and the branch observer (Config.Observer) are not capabilities:
// the fused loops drive the unit and call the observer themselves.
//
// Caps is derived from a Config by (*Config).Caps: the hook fields the
// caller attached OR'd with the external demands it declared in
// Config.Demand. Builders (corpus, serve, dse) never branch on Engine
// themselves; they assemble a Config and let SelectEngine decide.
type Caps struct {
	// CommitObs: a per-commit architectural tap is attached
	// (Config.Commits) — the fault harness's lockstep checker.
	CommitObs bool
	// Events: an event sink wants the typed pipeline event stream
	// (Config.Obs). The fused loops emit no events.
	Events bool
	// PipeTrace: a per-cycle pipeline-diagram writer is attached
	// (Config.Trace).
	PipeTrace bool
	// RAS: return-address-stack speculation is enabled (Config.RAS);
	// its push/pop stream is inherently per-fetch.
	RAS bool
	// Record: the run will be captured for replay by an external
	// recording layer. No Config hook implies it — the serving layer
	// sets it through Config.Demand when `-record` is active.
	Record bool
}

// CycleAccurate reports whether any capability is demanded — i.e.
// whether the machine must execute strictly cycle by cycle.
func (cp Caps) CycleAccurate() bool { return cp != Caps{} }

// Caps derives the capability demands of a configuration: the attached
// hooks plus the externally declared Config.Demand.
func (c *Config) Caps() Caps {
	cp := c.Demand
	if c.Commits != nil {
		cp.CommitObs = true
	}
	if c.Obs != nil {
		cp.Events = true
	}
	if c.Trace != nil {
		cp.PipeTrace = true
	}
	if c.RAS != nil {
		cp.RAS = true
	}
	return cp
}

// SelectEngine is the single engine-resolution rule: it maps a
// configuration onto the engine a machine built from it will run.
//
//   - EngineFast and EngineReference are explicit choices and are
//     honored verbatim (both support every capability).
//   - EngineAuto and EngineSuperblock resolve to EngineSuperblock when
//     the configuration demands no capability (Caps), and fall back to
//     EngineFast otherwise. An ASBR unit (Config.Fold) and a branch
//     observer (Config.Observer) demand none, so the profiling and
//     folded runs of the ASBR flow, faulted or not, stay on the
//     superblock engine; a commit observer, an event sink (Obs), a
//     pipeline trace, a RAS or a Record demand forces the fast
//     engine. The fallback is silent by design: attaching an observer
//     to an `auto` machine must change its speed, never its meaning —
//     all engines produce bit-identical counters.
//
// New applies this rule once per machine; callers that want to know
// the outcome ahead of construction (or report it afterwards) use this
// function or (*CPU).ResolvedEngine.
func SelectEngine(cfg Config) Engine {
	switch cfg.Engine {
	case EngineFast, EngineReference:
		return cfg.Engine
	}
	if cfg.Caps().CycleAccurate() {
		return EngineFast
	}
	return EngineSuperblock
}
