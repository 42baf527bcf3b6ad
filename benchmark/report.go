package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// End-to-end metrics, reported with tracing off. Every workload emits
// all of them; BENCHMARK.json carries their units and bounds.
var e2eMetrics = []string{"setup_s", "pass_s", "alloc_mb", "op_p50_ms", "op_p99_ms"}

// Per-layer metrics, reported by the traced run of every workload.
var layerMetrics = []string{
	"cc.compile_ms", "asm.assemble_ms", "sched.schedule_ms", "cpu.predecode_ms",
	"cpu.plain_ns_per_instr", "cpu.profile_ns_per_instr", "cpu.fold_ns_per_instr",
	"profile.select_ms", "cpu.superblock_instr_frac", "core.fold_coverage",
	"core.fold_fallbacks", "cpu.sim_instr", "cpu.sim_cycles", "trace.overhead_frac",
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result collects one run's checks and metrics.
type result struct {
	attempted int
	failed    int
	failures  []string
	metrics   []metric
}

// check counts one checked operation and records it as failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// checkErr is check for an operation whose only failure mode is err.
func (r *result) checkErr(err error, what string) {
	r.check(err == nil, "%s: %v", what, err)
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) find(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// write prints every metric as "name value unit", then the failures,
// then the one-line JSON summary restricted to the contract's metric
// list for this mode.
func (r *result) write(w io.Writer, contract []string) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jv{}}
	for _, name := range contract {
		if m, ok := r.find(name); ok {
			out.Metrics[name] = jv{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q in [0,1]); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// bests returns each operation's fastest time over the passes. Host
// noise on a shared machine only ever adds time and comes in bursts of
// seconds, so the fastest of several identical runs estimates the
// operation's cost on a quiet host far more steadily than their median.
func bests(perOp [][]float64) []float64 {
	out := make([]float64, len(perOp))
	for k, xs := range perOp {
		out[k] = quantile(xs, 0)
	}
	return out
}

// addEndToEnd reports the end-to-end metrics from a run's set-up times
// (s), each operation's floor (ms) and the allocation of each pass,
// with every time scaled to the reference host speed; then the speed
// itself and pass_s before scaling.
func addEndToEnd(r *result, setups, floors, allocs []float64, cal *calibrator) {
	speed := cal.speed()
	r.add("setup_s", median(setups)*speed, "s")
	r.add("pass_s", sum(floors)/1e3*speed, "s")
	r.add("alloc_mb", median(allocs), "MB")
	r.add("op_p50_ms", quantile(floors, 0.50)*speed, "ms")
	r.add("op_p99_ms", quantile(floors, 0.99)*speed, "ms")
	r.add("host.speed", speed, "x")
	r.add("pass_raw_s", sum(floors)/1e3, "s")
}

// collect runs a garbage collection before a timed set-up or pass, so
// each starts from the same heap and pays no collection work left over
// from the one before.
func collect() { runtime.GC() }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// allocMeter reads the runtime's cumulative allocation counter.
type allocMeter struct{ start uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.TotalAlloc}
}

// mb returns the megabytes allocated since startAlloc.
func (a allocMeter) mb() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-a.start) / 1e6
}
