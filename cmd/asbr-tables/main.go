// Command asbr-tables regenerates every table and figure of the
// paper's evaluation section (§8) plus the ablation studies:
//
//	asbr-tables                  # everything
//	asbr-tables -table fig6      # baseline predictability (Figure 6)
//	asbr-tables -table fig7      # selected branches, G.721 encode (Figure 7)
//	asbr-tables -table fig9      # selected branches, ADPCM encode (Figure 9)
//	asbr-tables -table fig10     # selected branches, ADPCM decode (Figure 10)
//	asbr-tables -table fig11     # ASBR results (Figure 11)
//	asbr-tables -table power     # energy/area model (abstract claims)
//	asbr-tables -table motivation # §3 Figure 1 correlation experiment
//	asbr-tables -table ablations # threshold / BIT size / scheduling / validity
//	asbr-tables -table faults    # fault-injection reliability table
//	asbr-tables -table predictability # static branches vs the dynamic predictor zoo
//	asbr-tables -bench adpcm-enc,g721-dec # restrict per-benchmark tables
//	asbr-tables -n 8192          # samples per benchmark
//	asbr-tables -parallel 8      # bounded worker pool for the sweep jobs
//	asbr-tables -max-cycles 1e6  # per-simulation watchdog budget
//	asbr-tables -json            # machine-readable output (the /v1/sweep encoding)
//	asbr-tables -remote :8344    # run the sweep on an asbr-serve daemon
//
// Local and remote runs produce the identical machine-readable sweep
// (experiment.TablesJSON — the /v1/sweep response body); the text
// tables and the -json dump are two renderings of that one value.
//
// A cell whose simulation fails (cycle budget, wall-clock timeout, a
// guest fault) renders as ERR with its reason below the table; every
// remaining table still prints, and the exit status is nonzero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"asbr/internal/cliflags"
	"asbr/internal/cpu"
	"asbr/internal/experiment"
	"asbr/internal/serve"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: "+strings.Join(experiment.TableNames(), "|")+"|all")
	bench := flag.String("bench", "", "comma-separated benchmark filter for per-benchmark tables (empty = all)")
	n := flag.Int("n", 4096, "audio samples per benchmark")
	seed := flag.Int64("seed", 1, "synthetic input seed")
	update := flag.String("update", "mem", "BDT update point: ex|mem|wb (paper thresholds 2|3|4)")
	sf := cliflags.NewSim()
	sf.MaxCycles = 0 // 0 = the experiment engine's default budget
	sf.RegisterBudget(flag.CommandLine)
	sf.RegisterRemote(flag.CommandLine)
	sf.RegisterParallel(flag.CommandLine)
	sf.RegisterJSON(flag.CommandLine)
	flag.Parse()

	names, err := experiment.NormalizeTableNames([]string{*table})
	if err != nil {
		fmt.Fprintf(os.Stderr, "asbr-tables: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	var benches []string
	if *bench != "" {
		benches, err = experiment.NormalizeBenchNames(strings.Split(*bench, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "asbr-tables: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
	}

	var tabs *experiment.TablesJSON
	if sf.Remote != "" {
		tabs, err = remoteSweep(sf, names, benches, *n, *seed, *update)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asbr-tables: %v\n", err)
			os.Exit(1)
		}
	} else {
		opt := experiment.Options{Samples: *n, Seed: *seed, Parallel: sf.Parallel,
			Benches: benches, MaxCycles: sf.MaxCycles, Timeout: sf.Timeout}
		switch strings.ToLower(*update) {
		case "ex":
			opt.Update = cpu.StageEX
		case "wb":
			opt.Update = cpu.StageWB
		default:
			opt.Update = cpu.StageMEM
		}
		// Tables annotates failed cells in place and reports the first
		// failure; render everything either way and fail at the end.
		tabs, err = experiment.NewSweep(opt).Tables(names)
		if err != nil && tabs == nil {
			fmt.Fprintf(os.Stderr, "asbr-tables: %v\n", err)
			os.Exit(1)
		}
	}

	if sf.JSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tabs); err != nil {
			fmt.Fprintf(os.Stderr, "asbr-tables: %v\n", err)
			os.Exit(1)
		}
	} else {
		render(os.Stdout, tabs)
	}
	if tabs.HasErrors() {
		for _, e := range tabs.Errors {
			fmt.Fprintf(os.Stderr, "asbr-tables: %s\n", e)
		}
		os.Exit(1)
	}
}

// remoteSweep runs the sweep on an asbr-serve daemon; the response is
// the same TablesJSON a local run produces.
func remoteSweep(sf *cliflags.Sim, names, benches []string, n int, seed int64, update string) (*experiment.TablesJSON, error) {
	return sf.Client().Sweep(context.Background(), serve.SweepRequest{
		Tables:    names,
		Benches:   benches,
		Samples:   n,
		Seed:      seed,
		Update:    update,
		Parallel:  sf.Parallel,
		MaxCycles: sf.MaxCycles,
		TimeoutMS: sf.Timeout.Milliseconds(),
	})
}

// render writes every table the sweep carries in reporting order.
func render(w io.Writer, t *experiment.TablesJSON) {
	if t.Fig6 != nil {
		fig6(w, t)
	}
	for _, bt := range []*experiment.BranchTableJSON{t.Fig7, t.Fig9, t.Fig10} {
		if bt != nil {
			branchTable(w, bt, t.Samples)
		}
	}
	if t.Fig11 != nil {
		fig11(w, t)
	}
	if t.Power != nil {
		powerArea(w, t)
	}
	if t.Motivation != nil {
		motivation(w, t)
	}
	if t.Ablations != nil {
		ablations(w, t.Ablations)
	}
	if t.Faults != nil {
		faults(w, t)
	}
	if t.Predictability != nil {
		predictability(w, t)
	}
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// printCellErrors lists each failed cell's reason under the table.
func printCellErrors(w io.Writer, errs []*experiment.CellError) {
	for _, e := range errs {
		if e != nil {
			fmt.Fprintf(w, "  ERR(%s): %s\n", e.Code, e.Message)
		}
	}
}

func fig6(out io.Writer, t *experiment.TablesJSON) {
	fmt.Fprintf(out, "Figure 6: branch predictability of the benchmarks (n=%d)\n", t.Samples)
	w := newTab(out)
	fmt.Fprintln(w, "benchmark\tpredictor\tCycles\tCPI\tAcc")
	var errs []*experiment.CellError
	for _, r := range t.Fig6 {
		if r.Error != nil {
			fmt.Fprintf(w, "%s\t%s\tERR\tERR\tERR\n", r.Benchmark, r.Predictor)
			errs = append(errs, r.Error)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%.2f\t%.0f%%\n", r.Benchmark, r.Predictor, r.Cycles, r.CPI, 100*r.Accuracy)
	}
	w.Flush()
	printCellErrors(out, errs)
	fmt.Fprintln(out)
}

// figureTitle maps the wire table name onto the paper's figure label.
func figureTitle(name string) string {
	switch name {
	case experiment.TableFig7:
		return "Figure 7"
	case experiment.TableFig9:
		return "Figure 9"
	case experiment.TableFig10:
		return "Figure 10"
	}
	return name
}

func branchTable(out io.Writer, bt *experiment.BranchTableJSON, samples int) {
	fmt.Fprintf(out, "%s: execution statistics for the branches selected for %s (n=%d)\n",
		figureTitle(bt.Figure), bt.Benchmark, samples)
	w := newTab(out)
	fmt.Fprintln(w, "branch\tpc\texec #\tnot taken\tbimodal\tgshare\tdist")
	for _, r := range bt.Rows {
		dist := fmt.Sprintf("%d", r.Distance)
		if r.CrossBlock {
			dist = "x-blk"
		}
		fmt.Fprintf(w, "br%d\t0x%08x\t%d\t%.2f\t%.2f\t%.2f\t%s\n",
			r.Index, r.PC, r.Exec,
			r.Accuracy["not taken"], r.Accuracy["bimodal-2048"], r.Accuracy["gshare-11/2048"], dist)
	}
	w.Flush()
	fmt.Fprintln(out)
}

func fig11(out io.Writer, t *experiment.TablesJSON) {
	fmt.Fprintf(out, "Figure 11: application-specific branch resolution results (n=%d, update=%v)\n",
		t.Samples, t.Update)
	w := newTab(out)
	fmt.Fprintln(w, "benchmark\taux predictor\tCycles\tImpr.\tvs\tfolds\tfallbacks")
	var errs []*experiment.CellError
	for _, r := range t.Fig11 {
		if r.Error != nil {
			fmt.Fprintf(w, "%s\t%s\tERR\tERR\t-\tERR\tERR\n", r.Benchmark, r.Aux)
			errs = append(errs, r.Error)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%.0f%%\t%s\t%d\t%d\n",
			r.Benchmark, r.Aux, r.Cycles, 100*r.Improvement, r.BaselineName, r.Folds, r.Fallbacks)
	}
	w.Flush()
	printCellErrors(out, errs)
	fmt.Fprintln(out)
}

func powerArea(out io.Writer, t *experiment.TablesJSON) {
	fmt.Fprintf(out, "Power/area model: the abstract's energy and area claims (n=%d)\n", t.Samples)
	w := newTab(out)
	fmt.Fprintln(w, "benchmark\tconfig\tinsts\twrong-path\tenergy\tpredictor+BTB energy\tarea (bits)")
	var errs []*experiment.CellError
	for _, r := range t.Power {
		if r.Error != nil {
			fmt.Fprintf(w, "%s\t%s\tERR\tERR\tERR\tERR\tERR\n", r.Benchmark, r.Config)
			errs = append(errs, r.Error)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.0f\t%.0f\t%d\n",
			r.Benchmark, r.Config, r.Instructions, r.WrongPath,
			r.Energy.Total, r.Energy.Predictor+r.Energy.BTB, r.AreaBits)
	}
	w.Flush()
	printCellErrors(out, errs)
	fmt.Fprintln(out)
}

func motivation(out io.Writer, t *experiment.TablesJSON) {
	m := t.Motivation
	fmt.Fprintf(out, "Motivation (paper §3, Figure 1): data correlation vs. input dependence (n=%d)\n", t.Samples)
	w := newTab(out)
	fmt.Fprintln(w, "branch\texec #\tbimodal\tgshare\tASBR fold rate")
	for _, r := range m.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\n", r.Name, r.Exec, r.Bimodal, r.GShare, r.FoldRate)
	}
	w.Flush()
	verdict := "bit-exact"
	if !m.AccMatch {
		verdict = "MISMATCH"
	}
	fmt.Fprintf(out, "cycles: %d baseline -> %d with B4+B5 folded (%s)\n\n",
		m.BaselineCycles, m.ASBRCycles, verdict)
}

func ablations(out io.Writer, a *experiment.AblationsJSON) {
	fmt.Fprintf(out, "Ablation: BDT update point (paper §5.2 thresholds), %s\n", a.ThresholdBench)
	w := newTab(out)
	fmt.Fprintln(w, "update\tthreshold\tCycles\tfolds\tfallbacks")
	for _, r := range a.Threshold {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", r.Update, r.Threshold, r.Cycles, r.Folds, r.Fallbacks)
	}
	w.Flush()
	fmt.Fprintln(out)

	fmt.Fprintf(out, "Ablation: BIT capacity sweep, %s\n", a.BITSizeBench)
	w = newTab(out)
	fmt.Fprintln(w, "entries\tselected\tCycles\tfolds")
	for _, r := range a.BITSize {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n", r.Entries, r.K, r.Cycles, r.Folds)
	}
	w.Flush()
	fmt.Fprintln(out)

	fmt.Fprintf(out, "Ablation: §5.1 scheduling, %s\n", a.SchedulingBench)
	w = newTab(out)
	fmt.Fprintln(w, "scheduling\tCycles\tbaseline\tImpr.\tfolds\tcandidates")
	for _, r := range a.Scheduling {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f%%\t%d\t%d\n",
			r.Label, r.Cycles, r.Baseline, 100*r.Improvement, r.Folds, r.Candidates)
	}
	w.Flush()
	fmt.Fprintln(out)

	fmt.Fprintf(out, "Ablation: BDT validity counters, %s\n", a.ValidityBench)
	w = newTab(out)
	fmt.Fprintln(w, "mode\tCycles\tfolds\tfallbacks\toutput")
	for _, r := range a.Validity {
		verdict := "bit-exact"
		if !r.OutputCorrect {
			verdict = "CORRUPTED"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\n", r.Label, r.Cycles, r.Folds, r.Fallbacks, verdict)
	}
	w.Flush()
	fmt.Fprintln(out)
}

func faults(out io.Writer, t *experiment.TablesJSON) {
	fmt.Fprintf(out, "Fault injection: lockstep divergence detection (n=%d)\n", t.Samples)
	w := newTab(out)
	fmt.Fprintln(w, "benchmark\tplan\tinjected\tdiverged\tfirst divergent pc\tcycle\tcommits")
	var errs []*experiment.CellError
	for _, r := range t.Faults {
		if r.Error != nil {
			fmt.Fprintf(w, "%s\t%s\tERR\tERR\t-\t-\t-\n", r.Benchmark, r.Plan)
			errs = append(errs, r.Error)
			continue
		}
		diverged := "no"
		pc := "-"
		cyc := "-"
		if r.Diverged {
			diverged = "YES"
			pc = fmt.Sprintf("0x%08x", r.PC)
			cyc = fmt.Sprintf("%d", r.Cycle)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\t%s\t%d\n",
			r.Benchmark, r.Plan, r.Injected, diverged, pc, cyc, r.Commits)
	}
	w.Flush()
	printCellErrors(out, errs)
	fmt.Fprintln(out)
}

// predictability renders the branch-predictability classification: one
// block per benchmark listing every static branch with its shadow-zoo
// accuracies and class, then the class census and the headline rescued
// fraction.
func predictability(out io.Writer, t *experiment.TablesJSON) {
	fmt.Fprintf(out, "Predictability: static branches vs. the dynamic predictor zoo (n=%d, update=%v)\n",
		t.Samples, t.Update)
	var errs []*experiment.CellError
	for _, r := range t.Predictability {
		if r.Error != nil {
			fmt.Fprintf(out, "%s: ERR\n", r.Benchmark)
			errs = append(errs, r.Error)
			continue
		}
		fmt.Fprintf(out, "%s\n", r.Benchmark)
		w := newTab(out)
		fmt.Fprintln(w, "pc\texec #\ttaken\tbimodal\tgshare\ttage\tloop\ttageloop\tfold\tbest misses\trescued\tclass")
		for _, b := range r.Rows {
			fmt.Fprintf(w, "0x%08x\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d\t%d\t%s\n",
				b.PC, b.Exec, b.Taken,
				b.Accuracy["bimodal"], b.Accuracy["gshare"], b.Accuracy["tage"],
				b.Accuracy["loop"], b.Accuracy["tageloop"],
				b.FoldRate, b.Mispredicts, b.Rescued, b.Class)
		}
		w.Flush()
		fmt.Fprintf(out, "classes:")
		for _, c := range []string{
			experiment.ClassPredictable, experiment.ClassTAGERescued,
			experiment.ClassLoopRescued, experiment.ClassASBRFolded,
			experiment.ClassUnpredictable,
		} {
			fmt.Fprintf(out, " %s=%d", c, r.Classes[c])
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "ASBR rescues %d of %d best-dynamic mispredictions (%.0f%%, %d cycles) that no predictor in the zoo avoids\n\n",
			r.RescuedMispredicts, r.BestMispredicts, 100*r.RescuedFrac, r.RescuedCycles)
	}
	printCellErrors(out, errs)
}
