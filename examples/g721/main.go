// G.721: profile-guided customization of the CCITT G.721 speech coder
// with a 16-entry BIT (paper Figure 7), comparing the three BDT update
// points (paper §5.2 thresholds) on the same selection.
//
//	go run ./examples/g721
package main

import (
	"fmt"
	"log"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/experiment"
	"asbr/internal/mem"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/workload"
)

func main() {
	const n = 4096
	opt := experiment.Options{Samples: n, Seed: 1}

	// The per-branch table the paper's Figure 7 reports.
	tab, err := experiment.NewSweep(opt).SelectedBranches(experiment.TableFig7, workload.G721Encode)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("branches selected for the 16-entry BIT (cf. paper Figure 7):\n")
	fmt.Printf("%-5s %-10s %8s  %9s %7s %6s\n", "br", "pc", "exec#", "not-taken", "bimodal", "gshare")
	for _, r := range tab.Rows {
		fmt.Printf("br%-3d 0x%08x %8d  %9.2f %7.2f %6.2f\n",
			r.Index, r.PC, r.Exec,
			r.Accuracy["not taken"], r.Accuracy["bimodal-2048"], r.Accuracy["gshare-11/2048"])
	}

	// Compare the §5.2 update points on this selection.
	prog, err := workload.Build(workload.G721Encode, true)
	if err != nil {
		log.Fatal(err)
	}
	in, err := workload.Input(workload.G721Encode, n, 1)
	if err != nil {
		log.Fatal(err)
	}
	prof := profile.New(predict.Must(predict.NewBimodal(512)))
	pcfg := cpu.Config{
		ICache: mem.DefaultICache(), DCache: mem.DefaultDCache(),
		Branch: predict.BaselineBimodal(), ExtraMispredictCycles: 4, Observer: prof,
	}
	base, err := workload.Run(prog, pcfg, in, n)
	if err != nil {
		log.Fatal(err)
	}
	cands, err := profile.Select(prog, prof, profile.SelectOptions{
		Aux: "bimodal-512", MinDistance: 2, K: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	entries, err := profile.BuildBITFromCandidates(prog, cands)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nbaseline (bimodal-2048): %d cycles\n", base.Stats.Cycles)
	fmt.Println("update point sweep (same 16-branch selection, aux = bimodal-512):")
	for _, up := range []struct {
		stage cpu.Stage
		label string
	}{
		{cpu.StageEX, "EX  (threshold 2, aggressive in-stage compute)"},
		{cpu.StageMEM, "MEM (threshold 3, forwarding path)"},
		{cpu.StageWB, "WB  (threshold 4, unaugmented commit)"},
	} {
		eng := core.NewEngine(core.DefaultConfig())
		if err := eng.Load(entries); err != nil {
			log.Fatal(err)
		}
		cfg := pcfg
		cfg.Observer = nil
		cfg.Branch = predict.AuxBimodal512()
		cfg.Fold = eng
		cfg.BDTUpdate = up.stage
		res, err := workload.Run(prog, cfg, in, n)
		if err != nil {
			log.Fatal(err)
		}
		es := eng.Stats()
		fmt.Printf("  %-48s %9d cycles (%.1f%%), %6d folds, %6d fallbacks\n",
			up.label, res.Stats.Cycles,
			100*(1-float64(res.Stats.Cycles)/float64(base.Stats.Cycles)),
			es.Folds, es.Fallbacks)
	}
}
