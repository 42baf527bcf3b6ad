// Package runner is the concurrent experiment engine: a bounded
// worker pool with deterministic, input-ordered result aggregation
// (Map, MapErrs), a keyed once-guarded cache (Cache) and a workload
// artifact store (Artifacts) so expensive shared inputs — compiled
// programs, synthetic traces, golden outputs — are built exactly once
// per sweep no matter how many simulation jobs consume them
// concurrently.
//
// Determinism contract: Map assigns each job a fixed output index, so
// the result slice order — and, for deterministic job functions, every
// value in it — is identical regardless of the worker count. The
// experiment sweeps (internal/experiment) are built on this contract:
// `-parallel 8` must be byte-identical to `-parallel 1`.
//
// Robustness contract: a job that panics does not kill the process or
// the pool; the panic is recovered into a *PanicError recorded as that
// job's error, and every other job still runs. A Cache build that
// panics becomes that key's error for every caller in the same way.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"asbr/internal/obs"
)

// Pool activity counters in the process-wide metrics registry
// (asbr-sim -metrics dumps them; the serve daemon appends them to
// /metrics).
var (
	poolJobs   = obs.Default().Counter("asbr_runner_jobs_total", "pool jobs executed.")
	poolPanics = obs.Default().Counter("asbr_runner_panics_total", "pool jobs that panicked (recovered into PanicError).")
)

// PanicError is a recovered panic, carrying the job's input index (-1
// for a Cache build), the panic value and the stack at the panic site.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("runner: cached build panicked: %v", e.Value)
	}
	return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Value)
}

// Map runs f over items with at most parallel concurrent workers and
// returns the results in input order. parallel <= 0 means
// runtime.GOMAXPROCS(0); parallel == 1 runs inline with no goroutines.
//
// Every item is attempted even if an earlier one fails (jobs are
// independent simulations; a sweep reports the first failure but does
// not leave later artifacts half-built). On failure Map returns the
// error of the lowest-indexed failed item — so the reported error does
// not depend on goroutine scheduling — together with the result slice,
// in which failed items hold their zero value. Callers that need every
// job's individual outcome use MapErrs.
func Map[T, R any](parallel int, items []T, f func(i int, item T) (R, error)) ([]R, error) {
	out, errs := MapErrs(parallel, items, f)
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// MapErrs is Map returning the full per-item error slice instead of
// only the first failure, so a sweep can render every healthy cell and
// annotate the failed ones. The same determinism contract holds:
// errs[i] is item i's outcome regardless of worker count.
func MapErrs[T, R any](parallel int, items []T, f func(i int, item T) (R, error)) ([]R, []error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return out, errs
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(items) {
		parallel = len(items)
	}
	if parallel == 1 {
		for i := range items {
			out[i], errs[i] = runJob(i, items[i], f)
		}
		return out, errs
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(items) {
					return
				}
				out[i], errs[i] = runJob(i, items[i], f)
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// runJob runs one job, converting a panic into a *PanicError.
func runJob[T, R any](i int, item T, f func(i int, item T) (R, error)) (out R, err error) {
	poolJobs.Inc()
	defer func() {
		if v := recover(); v != nil {
			poolPanics.Inc()
			var zero R
			out = zero
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return f(i, item)
}
