package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"asbr/internal/cpu"
	"asbr/internal/mem"
	"asbr/internal/predict"
	"asbr/internal/workload"
)

// TestMapOrder checks the determinism contract: results land at their
// input index for every worker count.
func TestMapOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, par := range []int{0, 1, 2, 3, 8, 64, 1000} {
		got, err := Map(par, items, func(i int, item int) (int, error) {
			if i != item {
				t.Errorf("parallel=%d: f called with i=%d item=%d", par, i, item)
			}
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: got[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestMapEmpty checks the zero-item edge case.
func TestMapEmpty(t *testing.T) {
	got, err := Map(8, nil, func(i int, item int) (int, error) {
		t.Fatal("f called on empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestMapError checks that (a) every item is attempted even when an
// earlier one fails, for every worker count, and (b) the reported
// error is the lowest-indexed failure regardless of scheduling.
func TestMapError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, par := range []int{0, 1, 2, 8} {
		var attempted atomic.Int64
		_, err := Map(par, items, func(i int, item int) (int, error) {
			attempted.Add(1)
			if item == 3 || item == 6 {
				return 0, fmt.Errorf("item %d failed", item)
			}
			return item, nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("parallel=%d: err = %v, want lowest-index failure", par, err)
		}
		if got := attempted.Load(); got != int64(len(items)) {
			t.Fatalf("parallel=%d: attempted %d of %d items", par, got, len(items))
		}
	}
}

// TestMapConcurrencyBound checks that no more than `parallel` jobs run
// at once.
func TestMapConcurrencyBound(t *testing.T) {
	const par = 3
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	items := make([]int, 24)
	var once sync.Once
	_, err := Map(par, items, func(i int, _ int) (int, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		// Park the first wave until every worker has launched a job, so
		// an over-subscribed pool would be caught reliably.
		once.Do(func() { close(gate) })
		<-gate
		inFlight.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > par {
		t.Fatalf("peak concurrency %d exceeds parallel=%d", p, par)
	}
}

// TestCacheOnce checks exactly-once build semantics under heavy
// concurrent access to a small key space.
func TestCacheOnce(t *testing.T) {
	var c Cache[int, int]
	var builds [4]atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := (g + i) % len(builds)
				v, err := c.Get(key, func() (int, error) {
					builds[key].Add(1)
					return key * 10, nil
				})
				if err != nil || v != key*10 {
					t.Errorf("Get(%d) = %d, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times", k, n)
		}
	}
	if c.Len() != len(builds) {
		t.Errorf("Len = %d, want %d", c.Len(), len(builds))
	}
	if c.Builds() != uint64(len(builds)) {
		t.Errorf("Builds = %d, want %d", c.Builds(), len(builds))
	}
	if c.Gets() != goroutines*100 {
		t.Errorf("Gets = %d, want %d", c.Gets(), goroutines*100)
	}
}

// TestCacheError checks that a failed build is cached: the error is
// returned to every caller and the build never retried.
func TestCacheError(t *testing.T) {
	var c Cache[string, int]
	boom := errors.New("boom")
	var builds atomic.Int64
	for i := 0; i < 5; i++ {
		_, err := c.Get("bad", func() (int, error) {
			builds.Add(1)
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Get #%d: err = %v, want %v", i, err, boom)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("failed build ran %d times, want 1", builds.Load())
	}
}

// A Transient result reaches the caller joined on its build, then the
// entry is dropped and the next Get builds again; other results stay.
// Join never builds.
func TestCacheTransient(t *testing.T) {
	var c Cache[string, int]
	c.Transient = func(v int, _ error) bool { return v < 0 }
	if _, ok, _ := c.Join("k"); ok {
		t.Fatal("Join found an entry in an empty cache")
	}
	release := make(chan struct{})
	first, joined := make(chan int, 1), make(chan int, 1)
	go func() {
		v, _ := c.Get("k", func() (int, error) { <-release; return -1, nil })
		first <- v
	}()
	for !c.Contains("k") {
		runtime.Gosched()
	}
	go func() {
		v, ok, _ := c.Join("k")
		if !ok {
			v = 0
		}
		joined <- v
	}()
	for c.Gets() < 2 { // the Join holds the entry
		runtime.Gosched()
	}
	close(release)
	if a, b := <-first, <-joined; a != -1 || b != -1 {
		t.Fatalf("builder got %d, joined caller %d; want the build's -1 for both", a, b)
	}
	if c.Contains("k") {
		t.Fatal("a transient result stayed cached")
	}
	for i := 0; i < 2; i++ {
		if v, _ := c.Get("k", func() (int, error) { return 7, nil }); v != 7 {
			t.Fatalf("Get after the drop = %d, want 7", v)
		}
	}
	if c.Builds() != 2 {
		t.Fatalf("%d builds, want 2: the transient one and the one that stays", c.Builds())
	}
}

// TestArtifactsSharedStress drives at least 8 concurrent full pipeline
// simulations through Map against one shared Artifacts store: the
// exactly-once guarantees and the determinism of the shared-program
// results are both checked, and `go test -race` watches the whole
// thing.
func TestArtifactsSharedStress(t *testing.T) {
	const jobs = 16
	const samples = 256
	var arts Artifacts
	benches := workload.Names()

	run := func(parallel int) []uint64 {
		t.Helper()
		cycles, err := Map(parallel, make([]struct{}, jobs), func(i int, _ struct{}) (uint64, error) {
			bench := benches[i%len(benches)]
			prog, err := arts.ScheduledProgram(bench)
			if err != nil {
				return 0, err
			}
			in, err := arts.Input(bench, samples, 1)
			if err != nil {
				return 0, err
			}
			want, err := arts.Expected(bench, samples, 1)
			if err != nil {
				return 0, err
			}
			cfg := cpu.Config{
				ICache: mem.DefaultICache(),
				DCache: mem.DefaultDCache(),
				Branch: predict.BaselineBimodal(),
			}
			res, err := workload.Run(prog, cfg, in, samples)
			if err != nil {
				return 0, err
			}
			if !reflect.DeepEqual(res.Output, want) {
				return 0, fmt.Errorf("%s: output mismatch", bench)
			}
			return res.Stats.Cycles, nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return cycles
	}

	par := run(8)
	st := arts.Stats()
	if st.ProgramBuilds != uint64(len(benches)) {
		t.Errorf("ProgramBuilds = %d, want %d (one per benchmark)", st.ProgramBuilds, len(benches))
	}
	if st.InputBuilds != uint64(len(benches)) {
		t.Errorf("InputBuilds = %d, want %d", st.InputBuilds, len(benches))
	}
	if st.ExpectedBuilds != uint64(len(benches)) {
		t.Errorf("ExpectedBuilds = %d, want %d", st.ExpectedBuilds, len(benches))
	}
	if st.ProgramGets != jobs {
		t.Errorf("ProgramGets = %d, want %d", st.ProgramGets, jobs)
	}

	// The serial pass over the now-warm cache must see identical cycle
	// counts: sharing a program between concurrent CPUs must not leak
	// state into the artifact.
	ser := run(1)
	if !reflect.DeepEqual(par, ser) {
		t.Errorf("cycle counts differ between parallel and serial runs:\n par=%v\n ser=%v", par, ser)
	}
}

func TestMapErrsPerItemOutcomes(t *testing.T) {
	items := []int{0, 1, 2, 3, 4}
	out, errs := MapErrs(2, items, func(i, v int) (int, error) {
		if v%2 == 1 {
			return 0, fmt.Errorf("odd %d", v)
		}
		return v * 10, nil
	})
	if len(out) != 5 || len(errs) != 5 {
		t.Fatalf("lengths: %d, %d", len(out), len(errs))
	}
	for i := range items {
		if i%2 == 1 {
			if errs[i] == nil || errs[i].Error() != fmt.Sprintf("odd %d", i) {
				t.Errorf("errs[%d] = %v", i, errs[i])
			}
			if out[i] != 0 {
				t.Errorf("failed cell %d holds %d, want zero value", i, out[i])
			}
		} else {
			if errs[i] != nil {
				t.Errorf("errs[%d] = %v", i, errs[i])
			}
			if out[i] != i*10 {
				t.Errorf("out[%d] = %d", i, out[i])
			}
		}
	}
}

func TestPanicRecoveredPerJob(t *testing.T) {
	// A panicking job must not kill the pool: the other jobs complete
	// and the panic arrives as a *PanicError for that index only.
	out, errs := MapErrs(4, []int{0, 1, 2, 3}, func(i, v int) (string, error) {
		if v == 2 {
			panic("boom")
		}
		return "ok", nil
	})
	for i, err := range errs {
		if i == 2 {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("errs[2] = %v, want *PanicError", err)
			}
			if pe.Index != 2 || pe.Value != "boom" || len(pe.Stack) == 0 {
				t.Fatalf("panic error incomplete: %+v", pe)
			}
			continue
		}
		if err != nil || out[i] != "ok" {
			t.Errorf("job %d: out=%q err=%v", i, out[i], err)
		}
	}
	// Map surfaces the lowest-index failure.
	if _, err := Map(4, []int{0, 1, 2, 3}, func(i, v int) (string, error) {
		if v >= 2 {
			panic(v)
		}
		return "ok", nil
	}); err == nil || !strings.Contains(err.Error(), "job 2 panicked") {
		t.Fatalf("Map err = %v, want job 2's panic", err)
	}
}

// TestCachePanicIsError: a build that panics is that key's error for
// every caller, concurrent or later, and is not run again.
func TestCachePanicIsError(t *testing.T) {
	var c Cache[string, []int]
	var builds atomic.Int64
	get := func() (v []int, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("Get panicked: %v", p)
			}
		}()
		return c.Get("k", func() ([]int, error) {
			builds.Add(1)
			panic("selection failed")
		})
	}
	check := func(v []int, err error) {
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "selection failed" || len(pe.Stack) == 0 {
			t.Errorf("Get = (%v, %v), want a *PanicError", v, err)
		} else if v != nil {
			t.Errorf("Get value = %v, want nil", v)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(get())
		}()
	}
	wg.Wait()
	check(get())
	if builds.Load() != 1 || c.Builds() != 1 {
		t.Errorf("build ran %d times (Builds() = %d), want once", builds.Load(), c.Builds())
	}
}

// TestMapErrsCachedBuildPanic: a job whose cached build panics reports
// an error rather than the build's zero value.
func TestMapErrsCachedBuildPanic(t *testing.T) {
	var c Cache[string, []int]
	var calls atomic.Int64
	out, errs := MapErrs(1, []string{"bench"}, func(_ int, key string) ([]int, error) {
		calls.Add(1)
		return c.Get(key, func() ([]int, error) { panic("selection failed") })
	})
	var pe *PanicError
	if !errors.As(errs[0], &pe) || pe.Index != -1 {
		t.Fatalf("out=%v errs=%v, want the cached build's *PanicError", out, errs)
	}
	if calls.Load() != 1 {
		t.Errorf("job ran %d times, want once", calls.Load())
	}
}
