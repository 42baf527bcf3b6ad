// Package obs is the observability layer: a typed pipeline event
// stream and the sink interface it flows through, a lock-free sampled
// tracer (JSONL + Chrome trace_event output), a zero-dependency metrics
// registry in Prometheus text exposition format, the per-branch
// predictability account, and the canonical statistics Snapshot shared
// by the CPU, the experiment tables and the serving layer's wire
// protocol.
//
// The package sits below internal/cpu and internal/core in the
// dependency order and knows nothing of either: the CPU and the ASBR
// unit emit into an EventSink (cpu.Config.Obs, core.Engine.SetEventSink),
// and a nil sink costs one predictable branch per emission site.
// Everything is stdlib-only.
package obs

// EventSink receives pipeline events. It is the one interface the CPU,
// the ASBR core and the fault injector emit through, so none of them
// needs knowledge of tracers or metrics.
type EventSink interface {
	OnEvent(Event)
}

// Clocked is implemented by sinks that stamp events with the machine's
// cycle counter: cpu.New installs its clock into a Clocked
// cpu.Config.Obs, so events that arrive without a cycle (the ASBR
// core's, the fault injector's) get the cycle they occurred in.
type Clocked interface {
	SetClock(func() uint64)
}
