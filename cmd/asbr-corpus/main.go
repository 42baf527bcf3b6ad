// Command asbr-corpus is the corpus-scale differential-testing tool:
// it generates seeded control-dominated MiniC corpora, replays recorded
// simulation jobs, diffs replay logs, and runs the differential check
// harness (fast and superblock vs reference engine, plain and folded,
// optionally through a live serving round-trip).
//
//	asbr-corpus gen -entries 30 -o corpus.jsonl     # manifest from seeds
//	asbr-corpus gen -seed 42 -entries 1 -dump -     # print one program
//	asbr-corpus check -entries 30                   # differential replay
//	asbr-corpus check -entries 30 -serve            # + /v1/jobs round-trip
//	asbr-corpus check -manifest corpus.jsonl        # drift check vs manifest
//	asbr-corpus check -fault bdt-flip:rate=1        # must FAIL (harness self-test)
//	asbr-corpus replay -log served.jsonl            # re-run recorded jobs
//	asbr-corpus replay -log served.jsonl -engine reference
//	asbr-corpus diff fast.jsonl ref.jsonl           # compare two replay logs
//
// A corpus is reproducible from seeds alone: the manifest carries
// (name, seed, knobs, program key, snapshot digest) per entry, never
// program text. `check` regenerates every entry from its seed and fails
// on the first obs.Snapshot divergence, printing the pinned seed for a
// one-line repro. Replay logs are what `asbr-serve -record` (or
// serve.Config.Record) captures: replaying one against any engine or
// config turns served traffic into a regression suite.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"asbr/internal/cliflags"
	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/fault"
	"asbr/internal/obs"
	"asbr/internal/runner"
	"asbr/internal/serve"
	"asbr/internal/serve/client"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "asbr-corpus: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "asbr-corpus: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: asbr-corpus <command> [flags]

commands:
  gen     generate a corpus manifest (and optionally the sources) from seeds
  check   regenerate the corpus and differentially replay every entry
  replay  re-run a recorded replay log and compare snapshots
  diff    compare two replay logs record-by-record

run "asbr-corpus <command> -h" for the command's flags
`)
}

// knobFlags registers the generator knobs on a flag set. Zero values
// mean "default" (corpus.Knobs normalization).
func knobFlags(fs *flag.FlagSet) *corpus.Knobs {
	k := &corpus.Knobs{}
	fs.IntVar(&k.Stmts, "stmts", 0, "top-level statements per program (0 = default 12, max 64)")
	fs.IntVar(&k.LoopDepth, "loop-depth", 0, "max control nesting depth (0 = default 3, max 6)")
	fs.Float64Var(&k.TakenBias, "taken-bias", 0, "loop-condition taken bias in [0,1] (0 = default 0.5)")
	fs.Float64Var(&k.FoldDensity, "fold-density", 0, "fold-eligible branch density in [0,1] (0 = default 0.35)")
	fs.Float64Var(&k.CallDensity, "call-density", 0, "helper-call statement density in [0,1] (0 = default 0.1)")
	fs.IntVar(&k.Vars, "vars", 0, "global scalar count (0 = default 5, max 8)")
	fs.IntVar(&k.Helpers, "helpers", 0, "helper function count (0 = default 2, max 4)")
	return k
}

// cmdGen writes a manifest (no simulation, no digests) and optionally
// dumps the generated sources.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	entries := fs.Int("entries", 30, "corpus size")
	seed := fs.Int64("seed", 2001, "base seed (entry i uses seed+i)")
	out := fs.String("o", "-", "manifest output path (\"-\" = stdout)")
	dump := fs.String("dump", "", "also write each program's MiniC source to this directory (\"-\" = stdout)")
	knobs := knobFlags(fs)
	fs.Parse(args)

	k, err := knobs.Normalize()
	if err != nil {
		return err
	}
	var list []corpus.Entry
	for i := 0; i < *entries; i++ {
		s := *seed + int64(i)
		src, err := corpus.Generate(s, k)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("corpus-%d", s)
		list = append(list, corpus.Entry{
			Name: name, Seed: s, Knobs: k, ProgramKey: corpus.SourceKey(src),
		})
		if *dump == "-" {
			fmt.Printf("// %s (seed %d)\n%s\n", name, s, src)
		} else if *dump != "" {
			if err := os.MkdirAll(*dump, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(fmt.Sprintf("%s/%s.mc", *dump, name), []byte(src), 0o644); err != nil {
				return err
			}
		}
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return corpus.WriteManifest(w, list)
}

// cmdCheck runs the differential harness: fast and superblock vs
// reference over the regenerated corpus, optional fault injection (which must make it
// fail), optional serving round-trip, optional manifest drift check.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	entries := fs.Int("entries", 30, "corpus size")
	seed := fs.Int64("seed", 2001, "base seed (entry i uses seed+i)")
	manifest := fs.String("manifest", "", "verify the regenerated corpus against this manifest")
	out := fs.String("o", "", "write the passing corpus manifest (with snapshot digests) here")
	useServe := fs.Bool("serve", false, "also round-trip every entry through an in-process asbr-serve daemon's /v1/jobs")
	quiet := fs.Bool("q", false, "suppress per-entry progress")
	knobs := knobFlags(fs)
	sf := cliflags.NewSim()
	sf.MaxCycles = 0 // 0 = the harness's 50M default
	sf.RegisterFault(fs)
	sf.RegisterBudget(fs)
	fs.Parse(args)

	plan, err := fault.ParsePlan(planOrNone(sf.Fault))
	if err != nil {
		return err
	}
	opt := corpus.CheckOptions{
		Entries:   *entries,
		BaseSeed:  *seed,
		Knobs:     *knobs,
		MaxCycles: sf.MaxCycles,
		Fault:     plan,
	}
	if !*quiet {
		opt.Logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	}

	ctx, cancel := sf.Context()
	defer cancel()
	if *useServe {
		hook, stop, err := serveHook(ctx)
		if err != nil {
			return err
		}
		defer stop()
		opt.Serve = hook
	}

	res, err := corpus.Check(ctx, opt)
	if err != nil {
		return err
	}
	fmt.Printf("corpus-check PASS: %d entries, %d with ASBR leg, %d folds, %d serve round-trips\n",
		len(res.Entries), res.ASBRPrograms, res.Folds, res.ServeChecked)

	if *manifest != "" {
		f, err := os.Open(*manifest)
		if err != nil {
			return err
		}
		want, err := corpus.ReadManifest(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := corpus.VerifyManifest(want, res.Entries); err != nil {
			return err
		}
		fmt.Printf("manifest %s: no drift\n", *manifest)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		return corpus.WriteManifest(f, res.Entries)
	}
	return nil
}

func planOrNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// serveHook boots a real in-process daemon on an ephemeral port and
// returns a check hook that round-trips one record through POST
// /v1/jobs + polling, exactly as an external client would.
func serveHook(ctx context.Context) (func(corpus.Record) (obs.Snapshot, error), func(), error) {
	srv := serve.New(serve.Config{Logf: nil})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	cl := client.New(ln.Addr().String())
	stop := func() {
		hs.Shutdown(context.Background())
		srv.Drain()
	}
	hook := func(rec corpus.Record) (obs.Snapshot, error) {
		job, err := cl.Submit(ctx, serve.JobRequest{Sim: &serve.SimRequest{
			Source:    rec.Source,
			Compile:   rec.Compile,
			Schedule:  rec.Schedule,
			Predictor: rec.Config.Predictor,
			ASBR:      rec.Config.ASBR,
			MaxCycles: rec.Config.MaxCycles,
		}})
		if err != nil {
			return obs.Snapshot{}, err
		}
		st, err := cl.Wait(ctx, job.ID, 5*time.Millisecond)
		if err != nil {
			return obs.Snapshot{}, err
		}
		if st.State != serve.JobDone || st.Sim == nil {
			return obs.Snapshot{}, fmt.Errorf("job %s finished %s (error %+v)", st.ID, st.State, st.Error)
		}
		return st.Sim.Stats, nil
	}
	return hook, stop, nil
}

// cmdReplay re-runs every record of a replay log and compares the
// resulting snapshot against the recorded one, cell by cell. With
// -engine, records replay under that engine instead of the recorded
// one — the differential use.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	logPath := fs.String("log", "", "asbr-replay/v1 JSONL to replay (required)")
	engine := fs.String("engine", "", "override engine for every record ("+engineList()+"; \"\" = as recorded)")
	fs.Parse(args)
	if *logPath == "" {
		return fmt.Errorf("replay: -log is required")
	}
	if _, err := cpu.ParseEngine(*engine); err != nil {
		return err
	}
	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	recs, err := corpus.ReadLog(f)
	f.Close()
	if err != nil {
		return err
	}
	// One store for the whole log: each benchmark program is built once.
	arts := &runner.Artifacts{}
	failed := 0
	for i, rec := range recs {
		if *engine != "" {
			rec.Config.Engine = *engine
		}
		got, err := corpus.RunWith(context.Background(), arts, rec)
		if err != nil {
			return fmt.Errorf("record %d (%s): %v", i, rec.Key, err)
		}
		diffs := got.Diff(rec.Snapshot)
		if len(diffs) == 0 {
			continue
		}
		failed++
		fmt.Printf("record %d (%s) DIVERGED:\n", i, rec.Key)
		for _, d := range diffs {
			fmt.Printf("  %s\n", d)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d records diverged", failed, len(recs))
	}
	fmt.Printf("replay PASS: %d records byte-identical\n", len(recs))
	return nil
}

func engineList() string {
	s := ""
	for i, n := range cpu.EngineNames() {
		if i > 0 {
			s += "|"
		}
		s += n
	}
	return s
}

// cmdDiff compares two replay logs positionally: record i of -a
// against record i of -b, snapshot cell by cell.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	pa := fs.String("a", "", "first replay log")
	pb := fs.String("b", "", "second replay log")
	fs.Parse(args)
	// Positional spelling: asbr-corpus diff a.jsonl b.jsonl.
	if rest := fs.Args(); *pa == "" && *pb == "" && len(rest) == 2 {
		*pa, *pb = rest[0], rest[1]
	}
	if *pa == "" || *pb == "" {
		return fmt.Errorf("diff: want two logs (-a/-b or two positional paths)")
	}
	ra, err := readLogFile(*pa)
	if err != nil {
		return err
	}
	rb, err := readLogFile(*pb)
	if err != nil {
		return err
	}
	if len(ra) != len(rb) {
		return fmt.Errorf("%s has %d records, %s has %d", *pa, len(ra), *pb, len(rb))
	}
	diffs := 0
	for i := range ra {
		if ra[i].Key != rb[i].Key {
			diffs++
			fmt.Printf("record %d: keys differ: %s vs %s\n", i, ra[i].Key, rb[i].Key)
			continue
		}
		for _, d := range ra[i].Snapshot.Diff(rb[i].Snapshot) {
			diffs++
			fmt.Printf("record %d (%s): %s\n", i, ra[i].Key, d)
		}
	}
	if diffs > 0 {
		return fmt.Errorf("%d differences", diffs)
	}
	fmt.Printf("diff PASS: %d records identical\n", len(ra))
	return nil
}

func readLogFile(path string) ([]corpus.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corpus.ReadLog(f)
}
