// Command asbr-prof profiles the branches of a program or built-in
// benchmark and prints the paper's §6 selection report: per-branch
// execution counts, taken rates, shadow-predictor accuracies, static
// def-to-branch distances, and the resulting fold candidates.
//
//	asbr-prof -bench adpcm-enc           # profile a built-in benchmark
//	asbr-prof prog.s                     # profile an assembly program
//	asbr-prof -c prog.mc                 # profile a MiniC program
//	asbr-prof -bench g721-enc -k 16      # selection size
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"asbr/internal/asm"
	"asbr/internal/cc"
	"asbr/internal/cliflags"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/profile"
	"asbr/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "built-in benchmark: adpcm-enc|adpcm-dec|g721-enc|g721-dec")
	compile := flag.Bool("c", false, "input file is MiniC")
	n := flag.Int("n", 4096, "samples for -bench")
	k := flag.Int("k", 16, "fold candidates to select")
	minDist := flag.Int("mindist", 3, "distance threshold (paper §5.2)")
	top := flag.Int("top", 20, "branches to list in the profile table")
	sf := cliflags.NewSim()
	sf.RegisterMachine(flag.CommandLine)
	sf.RegisterObs(flag.CommandLine)
	flag.Parse()

	ctx, cancel := sf.Context()
	defer cancel()

	cfg, err := sf.Machine()
	check(err)
	prof := profile.NewStandard()
	cfg.Observer = prof
	// -trace on the profiled run: the profiler takes the branch
	// outcomes (Config.Observer), the tracer the event stream
	// (Config.Obs), which moves the run to the fast engine.
	tr := sf.NewTracer()
	if tr != nil {
		cfg.Obs = tr
	}
	var prog *isa.Program
	var resolved cpu.Engine
	switch {
	case *bench != "":
		prog, err = workload.Build(*bench, true)
		check(err)
		in, ierr := workload.Input(*bench, *n, 1)
		check(ierr)
		res, rerr := workload.RunContext(ctx, prog, cfg, in, *n)
		check(rerr)
		resolved = res.CPU.ResolvedEngine()
	case flag.NArg() == 1:
		src, rerr := os.ReadFile(flag.Arg(0))
		check(rerr)
		if *compile {
			prog, err = cc.CompileToProgram(string(src))
		} else {
			prog, err = asm.Assemble(string(src))
		}
		check(err)
		c, cerr := cpu.New(cfg, prog)
		check(cerr)
		_, err = c.RunContext(ctx)
		check(err)
		resolved = c.ResolvedEngine()
	default:
		fmt.Fprintln(os.Stderr, "usage: asbr-prof [-bench name | program.{s,mc}]")
		os.Exit(2)
	}

	stats := prof.Stats()
	fmt.Printf("%d static conditional branches, %d dynamic executions (%s engine)\n\n",
		len(stats), prof.TotalBranches(), resolved)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "pc\texec\ttaken\tnot-taken\tbimodal\tgshare\tdist")
	for i, st := range stats {
		if i >= *top {
			break
		}
		d := profile.DefDistance(prog, st.PC)
		dist := fmt.Sprintf("%d", d)
		if d == profile.CrossBlockDistance {
			dist = "x-blk"
		} else if d < 0 {
			dist = "n/a"
		}
		fmt.Fprintf(w, "0x%08x\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%s\n",
			st.PC, st.Count, st.TakenRate(),
			st.Accuracy("not taken"), st.Accuracy("bimodal-2048"), st.Accuracy("gshare-11/2048"), dist)
	}
	w.Flush()

	cands, err := profile.Select(prog, prof, profile.SelectOptions{
		Aux: "bimodal-2048", MinDistance: *minDist, K: *k,
	})
	check(err)
	fmt.Printf("\n%d fold candidates (threshold %d):\n", len(cands), *minDist)
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tpc\tscore\texec\taux acc\tdist")
	for i, c := range cands {
		dist := fmt.Sprintf("%d", c.Distance)
		if c.Distance == profile.CrossBlockDistance {
			dist = "x-blk"
		}
		fmt.Fprintf(w, "%d\t0x%08x\t%.0f\t%d\t%.2f\t%s\n", i, c.PC, c.Score, c.Count, c.AuxAccuracy, dist)
	}
	w.Flush()

	if tr != nil {
		chrome, terr := tr.WriteFiles(sf.Trace)
		check(terr)
		fmt.Printf("\ntrace: %d events (%d retained) -> %s, %s\n",
			tr.Total(), tr.Retained(), sf.Trace, chrome)
	}
	check(sf.DumpMetrics())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "asbr-prof:", err)
		os.Exit(1)
	}
}
