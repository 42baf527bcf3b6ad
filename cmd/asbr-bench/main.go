// Command asbr-bench measures simulator throughput over the paper's
// four benchmarks on all three cycle engines and writes the versioned
// asbr-bench/v2 report BENCH_cpu.json (simulated cycles per second,
// host ns per committed instruction, allocations per run, and each
// batch engine's speedup over the reference engine).
//
//	asbr-bench                           # measure, print, write BENCH_cpu.json
//	asbr-bench -iters 5 -n 2048          # measurement effort
//	asbr-bench -compare BENCH_baseline.json   # CI regression gate
//	asbr-bench -compare BENCH_baseline.json -threshold 0.15
//
// The compare gate checks only host-portable metrics — the speedup
// ratios (all engines run on the same machine, so the ratio cancels
// host speed) and the batch engines' allocation counts (deterministic)
// — never absolute wall-clock numbers, so one checked-in baseline
// works on any hardware. A metric more than -threshold worse than the
// baseline fails the run with exit status 1. -min-super-geomean adds
// an absolute floor on the superblock geomean speedup (also a ratio,
// so host-portable): CI pins it so a superblock regression fails even
// if someone lowers the baseline.
//
// Per-benchmark speedups are noisy (the reference denominator pays
// real GC); the checked-in baseline records conservative floors per
// row and keeps the tight gate on the geomeans, which are stable
// run-to-run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"asbr/internal/bench"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/mem"
	"asbr/internal/workload"
)

func main() {
	out := flag.String("o", "BENCH_cpu.json", "report output path")
	iters := flag.Int("iters", 5, "measurement iterations per engine and benchmark")
	n := flag.Int("n", 4096, "audio samples per benchmark run")
	compare := flag.String("compare", "", "baseline report to gate against (exit 1 on regression)")
	threshold := flag.Float64("threshold", 0.10, "allowed relative regression vs the baseline")
	minSuper := flag.Float64("min-super-geomean", 0, "absolute floor on the superblock geomean speedup (0 disables)")
	flag.Parse()

	rep, err := measure(*iters, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asbr-bench:", err)
		os.Exit(1)
	}
	render(rep)

	if err := bench.WriteFile(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "asbr-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *minSuper > 0 && rep.GeomeanSuperblock < *minSuper {
		fmt.Fprintf(os.Stderr, "asbr-bench: REGRESSION: superblock geomean speedup %.2fx below the %.2fx floor\n",
			rep.GeomeanSuperblock, *minSuper)
		os.Exit(1)
	}

	if *compare != "" {
		base, err := bench.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asbr-bench:", err)
			os.Exit(1)
		}
		regs := bench.Regressions(base, rep, *threshold)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "asbr-bench: REGRESSION: %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("no regressions vs %s (threshold %.0f%%)\n", *compare, 100**threshold)
	}
}

func measure(iters, n int) (*bench.Report, error) {
	rep := &bench.Report{GoVersion: runtime.Version(), Iterations: iters, Samples: n}
	for _, name := range workload.Names() {
		prog, err := workload.Build(name, true)
		if err != nil {
			return nil, err
		}
		in, err := workload.Input(name, n, 1)
		if err != nil {
			return nil, err
		}
		pre := cpu.Predecode(prog)

		fast, err := measureEngine(prog, in, n, iters, cpu.EngineFast, pre)
		if err != nil {
			return nil, fmt.Errorf("%s/fast: %v", name, err)
		}
		super, err := measureEngine(prog, in, n, iters, cpu.EngineSuperblock, pre)
		if err != nil {
			return nil, fmt.Errorf("%s/superblock: %v", name, err)
		}
		ref, err := measureEngine(prog, in, n, iters, cpu.EngineReference, nil)
		if err != nil {
			return nil, fmt.Errorf("%s/reference: %v", name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, bench.Result{
			Name: name, Fast: fast, Superblock: super, Reference: ref,
			FastSpeedup:       ref.NsPerInstr / fast.NsPerInstr,
			SuperblockSpeedup: ref.NsPerInstr / super.NsPerInstr,
		})
	}
	rep.Finalize()
	return rep, nil
}

func engineConfig(eng cpu.Engine, pre *cpu.Predecoded) cpu.Config {
	return cpu.Config{
		ICache: mem.DefaultICache(), DCache: mem.DefaultDCache(),
		Predictor: "bimodal", Engine: eng, Predecoded: pre, MaxCycles: 1 << 32,
	}
}

// measureEngine runs iters full simulations (after one warmup run)
// and reports the median iteration — robust to scheduler interference
// on a shared host while still charging the reference engine its real
// GC cost. Allocation counts come from the runtime's malloc counter
// across the timed region and are averaged (they are deterministic up
// to runtime-internal allocations).
func measureEngine(prog *isa.Program, in []int32, n, iters int, eng cpu.Engine, pre *cpu.Predecoded) (bench.EngineResult, error) {
	run := func() (cpu.Stats, error) {
		res, err := workload.RunContext(context.Background(), prog, engineConfig(eng, pre), in, n)
		if err != nil {
			return cpu.Stats{}, err
		}
		return res.Stats, nil
	}
	st, err := run() // warmup; also the per-run counters (deterministic)
	if err != nil {
		return bench.EngineResult{}, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	times := make([]time.Duration, iters)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := run(); err != nil {
			return bench.EngineResult{}, err
		}
		times[i] = time.Since(start)
	}
	runtime.ReadMemStats(&after)

	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	med := times[iters/2]
	return bench.EngineResult{
		NsPerInstr:   float64(med.Nanoseconds()) / float64(st.Instructions),
		CyclesPerSec: float64(st.Cycles) / med.Seconds(),
		AllocsPerRun: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerRun:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		Cycles:       st.Cycles,
		Instructions: st.Instructions,
	}, nil
}

func render(rep *bench.Report) {
	fmt.Printf("engine throughput (n=%d, %d iterations, %s)\n", rep.Samples, rep.Iterations, rep.GoVersion)
	fmt.Printf("%-10s  %11s  %11s  %11s  %9s  %9s\n",
		"benchmark", "fast ns/in", "super ns/in", "ref ns/in", "fast spd", "super spd")
	for _, b := range rep.Benchmarks {
		fmt.Printf("%-10s  %11.1f  %11.1f  %11.1f  %8.2fx  %8.2fx\n",
			b.Name, b.Fast.NsPerInstr, b.Superblock.NsPerInstr, b.Reference.NsPerInstr,
			b.FastSpeedup, b.SuperblockSpeedup)
	}
	fmt.Printf("geomean speedup over reference: fast %.2fx, superblock %.2fx\n",
		rep.GeomeanFast, rep.GeomeanSuperblock)
}
