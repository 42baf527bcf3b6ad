// Command asbr-sim runs one or more programs on the cycle-accurate
// pipeline simulator, optionally with ASBR branch folding.
//
//	asbr-sim prog.s                    # assemble and run
//	asbr-sim -c prog.mc                # compile MiniC and run
//	asbr-sim -predictor gshare prog.s  # choose the branch predictor
//	asbr-sim -asbr -profile prog.s     # profile, select, fold, re-run
//	asbr-sim -disasm prog.s            # print the disassembly first
//	asbr-sim -trace t.jsonl prog.s     # record a pipeline event trace
//	asbr-sim -parallel 4 a.s b.s c.s   # simulate several programs at once
//	asbr-sim -remote :8344 prog.s      # run on an asbr-serve daemon
//
// With -remote the program source is posted to a shared asbr-serve
// daemon's /v1/sim endpoint and the returned statistics are printed;
// identical requests coalesce onto one simulation server-side. The
// local-only inspection flags (-disasm, -pipetrace, -fault, -trace)
// do not combine with it.
//
// -trace records every pipeline event (fetch, fold, issue, branch,
// mispredict, commit, plus the ASBR core's BIT/BDT events under -asbr)
// as asbr-trace/v1 JSONL and writes a chrome://tracing twin next to
// it. Before writing, the run self-checks that the trace's exact
// per-kind totals bit-match the simulator's counters.
//
// With several program files the simulations run concurrently on a
// bounded worker pool (internal/runner); each program's report is
// buffered and printed in argument order, so the output is identical
// to running the files one at a time.
//
// The machine is the paper's platform: 5-stage in-order pipeline, 8KB
// I-cache, 8KB D-cache and the calibrated mispredict penalty — the
// platform every served, replayed and DSE run simulates
// (corpus.MachineFor), so a local run and the same run with -remote
// report the same cycles.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"asbr/internal/asm"
	"asbr/internal/cc"
	"asbr/internal/cliflags"
	"asbr/internal/core"
	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/fault"
	"asbr/internal/isa"
	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/runner"
	"asbr/internal/sched"
	"asbr/internal/serve"
)

type options struct {
	compile   bool
	asbr      bool
	k         int
	schedule  bool
	disasm    bool
	pipeTrace int
	sim       *cliflags.Sim
}

func main() {
	opt := options{sim: cliflags.NewSim()}
	flag.BoolVar(&opt.compile, "c", false, "input is MiniC, not assembly")
	flag.BoolVar(&opt.asbr, "asbr", false, "enable ASBR folding (profiles first, then re-runs)")
	flag.IntVar(&opt.k, "k", core.DefaultBITEntries, "BIT entries for -asbr")
	flag.BoolVar(&opt.schedule, "sched", false, "run the §5.1 instruction scheduling pass")
	flag.BoolVar(&opt.disasm, "disasm", false, "print the disassembly before running")
	flag.IntVar(&opt.pipeTrace, "pipetrace", 0, "dump the first N cycles of pipeline occupancy")
	opt.sim.RegisterMachine(flag.CommandLine)
	opt.sim.RegisterFault(flag.CommandLine)
	opt.sim.RegisterRemote(flag.CommandLine)
	opt.sim.RegisterParallel(flag.CommandLine)
	opt.sim.RegisterObs(flag.CommandLine)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: asbr-sim [flags] program.{s,mc} ...")
		flag.Usage()
		os.Exit(2)
	}

	if opt.sim.Remote != "" && (opt.disasm || opt.pipeTrace > 0 || opt.sim.Fault != "" || opt.sim.Trace != "") {
		fmt.Fprintln(os.Stderr, "asbr-sim: -disasm, -pipetrace, -fault and -trace are local-only and do not combine with -remote")
		os.Exit(2)
	}
	if opt.sim.Trace != "" && opt.sim.Fault != "" {
		fmt.Fprintln(os.Stderr, "asbr-sim: -trace does not combine with -fault (the lockstep pair runs two machines)")
		os.Exit(2)
	}
	if opt.sim.Trace != "" && flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "asbr-sim: -trace records one run; pass a single program file")
		os.Exit(2)
	}

	files := flag.Args()
	run := simulate
	if opt.sim.Remote != "" {
		run = simulateRemote
	}
	outs, err := runner.Map(opt.sim.Parallel, files, func(_ int, path string) (string, error) {
		var buf bytes.Buffer
		if err := run(&buf, path, opt); err != nil {
			return "", fmt.Errorf("%s: %v", path, err)
		}
		return buf.String(), nil
	})
	// Print every completed report before failing: with several files
	// one bad program should not hide the others' results.
	for i, out := range outs {
		if out == "" {
			continue
		}
		if len(files) > 1 {
			fmt.Printf("==> %s <==\n", files[i])
		}
		fmt.Print(out)
		if len(files) > 1 {
			fmt.Println()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "asbr-sim:", err)
		os.Exit(1)
	}
	if err := opt.sim.DumpMetrics(); err != nil {
		fmt.Fprintln(os.Stderr, "asbr-sim: -metrics:", err)
		os.Exit(1)
	}
}

// simulate loads, optionally schedules, and runs one program, writing
// the full report to w. It is safe to call concurrently: every piece
// of machine state is local to the call.
func simulate(w io.Writer, path string, opt options) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}

	var prog *isa.Program
	if opt.compile {
		prog, err = cc.CompileToProgram(string(src))
	} else {
		prog, err = asm.Assemble(string(src))
	}
	if err != nil {
		return err
	}
	if opt.schedule {
		var st sched.Stats
		prog, st, err = sched.Schedule(prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "scheduler: %d/%d blocks rescheduled\n", st.BlocksScheduled, st.BlocksConsidered)
	}
	if opt.disasm {
		fmt.Fprint(w, asm.Disassemble(prog))
	}

	cfg, err := opt.sim.Machine()
	if err != nil {
		return err
	}
	// The pipeline diagram shows the measured machine only: the plain
	// run, the folded run, or under -fault the faulted machine.
	var pipe io.Writer
	if opt.pipeTrace > 0 {
		pipe = &truncWriter{w: w, lines: opt.pipeTrace}
	}
	tr := opt.sim.NewTracer()

	ctx, cancel := opt.sim.Context()
	defer cancel()

	if opt.sim.Fault != "" && !opt.asbr {
		return fmt.Errorf("-fault requires -asbr (faults corrupt the ASBR engine)")
	}

	if !opt.asbr {
		cfg.Trace = pipe
		if tr != nil {
			cfg.Obs = tr
		}
		c, err := runOnce(ctx, prog, cfg)
		if err != nil {
			return err
		}
		report(w, c, nil)
		return finishTrace(w, tr, c.Stats(), opt.sim.Trace)
	}

	// ASBR flow: profile -> select (the §6 selection every served,
	// replayed and DSE job makes) -> fold.
	prof := profile.New(predict.Must(predict.NewBimodal(512)))
	pcfg := cfg
	pcfg.Observer = prof
	base, err := runOnce(ctx, prog, pcfg)
	if err != nil {
		return err
	}
	eng, _, err := corpus.BuildEngineBanked(prog, prof, opt.k, 0, 0)
	if err != nil {
		return err
	}
	entries := eng.ActiveBIT().Entries()
	fmt.Fprintf(w, "ASBR: %d branches selected for the BIT\n", len(entries))
	for i, e := range entries {
		fmt.Fprintf(w, "  %2d: %v\n", i, e)
	}
	fcfg := cfg
	fcfg.Fold = eng
	fcfg.Trace = pipe

	if opt.sim.Fault != "" {
		plan, err := fault.ParsePlan(opt.sim.Fault)
		if err != nil {
			return err
		}
		inj := fault.NewInjector(plan, eng)
		rep, err := fault.RunPair(prog, cfg, fcfg, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "fault plan:    %s (%d injected)\n", plan, inj.Count())
		for _, ev := range inj.Events() {
			fmt.Fprintf(w, "  %s\n", ev)
		}
		fmt.Fprintf(w, "divergence:    %s\n", rep)
		if rep.BaseErr != nil {
			fmt.Fprintf(w, "baseline err:  %v\n", rep.BaseErr)
		}
		if rep.TestErr != nil {
			fmt.Fprintf(w, "faulted err:   %v\n", rep.TestErr)
		}
		return nil
	}

	if tr != nil {
		// Trace the measured (folded) run only, never the profile run,
		// with the engine's BIT/BDT events flowing into the same sink.
		fcfg.Obs = tr
		eng.SetEventSink(tr)
	}
	folded, err := runOnce(ctx, prog, fcfg)
	if err != nil {
		return err
	}
	report(w, folded, eng)
	fmt.Fprintf(w, "baseline cycles: %d, ASBR cycles: %d (%.1f%% improvement)\n",
		base.Stats().Cycles, folded.Stats().Cycles,
		100*(1-float64(folded.Stats().Cycles)/float64(base.Stats().Cycles)))
	return finishTrace(w, tr, folded.Stats(), opt.sim.Trace)
}

// finishTrace self-checks the recorded event stream against the
// simulator's own counters — the tracer counts every event before
// sampling, so the totals must bit-match — then writes the JSONL trace
// and its chrome://tracing twin. A nil tracer is a no-op.
func finishTrace(w io.Writer, tr *obs.Tracer, st cpu.Stats, path string) error {
	if tr == nil {
		return nil
	}
	if got, want := tr.Count(obs.EvCommit), st.Instructions; got != want {
		return fmt.Errorf("trace self-check: %d commit events, simulator counted %d instructions", got, want)
	}
	if got, want := tr.Count(obs.EvFold), st.Folded; got != want {
		return fmt.Errorf("trace self-check: %d fold events, simulator counted %d folds", got, want)
	}
	chrome, err := tr.WriteFiles(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace:         %d events (%d retained) -> %s, %s\n",
		tr.Total(), tr.Retained(), path, chrome)
	return nil
}

// simulateRemote posts one program to an asbr-serve daemon and prints
// the returned statistics. The daemon applies the same defaults the
// local path uses; its request coalescing means N clients posting the
// same program pay for one simulation.
func simulateRemote(w io.Writer, path string, opt options) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	req := serve.SimRequest{
		Source:     string(src),
		Compile:    opt.compile,
		Schedule:   opt.schedule,
		Predictor:  opt.sim.Predictor,
		ASBR:       opt.asbr,
		BITEntries: opt.k,
		MaxCycles:  opt.sim.MaxCycles,
		TimeoutMS:  opt.sim.Timeout.Milliseconds(),
	}
	ctx, cancel := opt.sim.Context()
	defer cancel()
	res, err := opt.sim.Client().Sim(ctx, req)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(w, "cycles:        %d\n", st.Cycles)
	fmt.Fprintf(w, "instructions:  %d (CPI %.2f)\n", st.Instructions, st.CPI)
	fmt.Fprintf(w, "cond branches: %d (taken %d, accuracy %.1f%%)\n",
		st.CondBranches, st.TakenBranches, 100*st.Accuracy)
	fmt.Fprintf(w, "stalls:        %d load-use, %d EX, %d MEM, %d fetch\n",
		st.LoadUseStalls, st.ExStalls, st.MemStalls, st.FetchStalls)
	fmt.Fprintf(w, "icache:        %.2f%% miss, dcache: %.2f%% miss\n",
		100*st.ICacheMissRate, 100*st.DCacheMissRate)
	if res.ASBR {
		fmt.Fprintf(w, "ASBR:          %d BIT entries, %d folds, %d fallbacks\n",
			res.BITEntries, st.Folded, st.FoldFallbacks)
		fmt.Fprintf(w, "baseline cycles: %d, ASBR cycles: %d (%.1f%% improvement)\n",
			res.BaselineCycles, st.Cycles, 100*res.Improvement)
	}
	if len(res.Output) > 0 {
		fmt.Fprintf(w, "output:        %v\n", res.Output)
	}
	fmt.Fprintf(w, "exit code:     %d\n", res.ExitCode)
	return nil
}

func runOnce(ctx context.Context, prog *isa.Program, cfg cpu.Config) (*cpu.CPU, error) {
	c, err := cpu.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	if _, err := c.RunContext(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

func report(w io.Writer, c *cpu.CPU, eng *core.Engine) {
	st := c.Stats()
	fmt.Fprintf(w, "engine:        %s\n", c.ResolvedEngine())
	fmt.Fprintf(w, "cycles:        %d\n", st.Cycles)
	fmt.Fprintf(w, "instructions:  %d (CPI %.2f)\n", st.Instructions, st.CPI())
	fmt.Fprintf(w, "cond branches: %d (taken %d, accuracy %.1f%%)\n",
		st.CondBranches, st.TakenBranches, 100*st.PredAccuracy())
	fmt.Fprintf(w, "flushes:       %d mispredicts, %d BTB-miss taken\n", st.Mispredicts, st.BTBMissTaken)
	fmt.Fprintf(w, "stalls:        %d load-use, %d EX, %d MEM, %d fetch\n",
		st.LoadUseStalls, st.ExStalls, st.MemStalls, st.FetchStalls)
	fmt.Fprintf(w, "icache:        %.2f%% miss, dcache: %.2f%% miss\n",
		100*st.ICache.MissRate(), 100*st.DCache.MissRate())
	if eng != nil {
		es := eng.Stats()
		fmt.Fprintf(w, "ASBR:          %d folds (%d taken), %d fallbacks\n", es.Folds, es.FoldsTaken, es.Fallbacks)
	}
	if len(c.Output) > 0 {
		fmt.Fprintf(w, "output:        %v\n", c.Output)
	}
	if len(c.OutputStr) > 0 {
		fmt.Fprintf(w, "stdout:        %s\n", c.OutputStr)
	}
	fmt.Fprintf(w, "exit code:     %d\n", c.ExitCode())
}

// truncWriter forwards the first n lines and drops the rest.
type truncWriter struct {
	w     io.Writer
	lines int
	seen  int
}

func (t *truncWriter) Write(p []byte) (int, error) {
	if t.seen >= t.lines {
		return len(p), nil
	}
	t.seen++
	if t.seen == t.lines {
		defer fmt.Fprintln(t.w, "... (pipeline trace truncated)")
	}
	return t.w.Write(p)
}
