// Command benchmark is the repository benchmark: it drives the ASBR
// reproduction through four workloads from one process, checks every
// result, and prints each metric as "name value unit" followed by a
// one-line JSON summary.
//
//	go run . -workload plain -seed 1 -seconds 25 -trace 0
//	bash benchmark/run.sh --workload serve --seed 3 --seconds 25 --trace 1
//
// Workloads: plain (hookless benchmark runs), asbr (profile, select and
// fold), tables (the paper's full table set) and serve (an in-process
// daemon under a seeded request mix). With -trace 1 traced passes
// alternate with untraced ones and the run reports per-layer metrics;
// with -trace 0 it reports the end-to-end metrics. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// config sizes one run. defaultConfig holds the sizes BENCHMARK.json
// and the seed-1 golden digests were made with; tests shrink them.
type config struct {
	workload string
	seed     int64
	window   time.Duration // timed window
	trace    bool

	plainN  int // samples per plain job
	asbrN   int // samples per asbr job
	tablesN int // samples per benchmark in the tables sweep
	serveN  int // samples per serve bench request
	probeN  int // samples per layer-probe run

	serveLog int // requests in the serve log, served once per pass

	setupReps int // set-ups per run; setup_s is their median

	golden *golden // digests to check against (nil: no check)
	record *golden // collects digests for a new golden file (nil: off)
}

func defaultConfig() config {
	return config{
		window: 25 * time.Second,
		plainN: 512, asbrN: 128, tablesN: 64, serveN: 256, probeN: 256,
		serveLog:  500,
		setupReps: 11,
	}
}

var workloads = []string{"plain", "asbr", "tables", "serve"}

// run executes one workload and returns its checks and metrics. With
// c.trace set, spans go to the returned tracer.
func run(ctx context.Context, c config) (*result, *tracer, error) {
	r := &result{}
	var tr *tracer
	var steps *stepper
	if c.trace {
		tr = newTracer()
		steps = newStepper(tr)
	}
	var err error
	switch c.workload {
	case "plain", "asbr":
		err = runJobs(ctx, c, c.workload == "asbr", r, steps)
	case "tables":
		err = runTables(c, r, tr)
	case "serve":
		err = runServe(ctx, c, r, tr)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want plain|asbr|tables|serve)", c.workload)
	}
	if err != nil {
		return nil, nil, err
	}
	if c.trace {
		probe, err := layerProbe(ctx, c, tr)
		if err != nil {
			return nil, nil, err
		}
		addLayerMetrics(r, tr.snapshot(), probe, []*stepper{steps, probe})
		r.checkErr(checkSpans(tr.snapshot()), "span check")
	}
	return r, tr, nil
}

func main() {
	c := defaultConfig()
	flag.StringVar(&c.workload, "workload", "plain", "workload: plain|asbr|tables|serve")
	flag.Int64Var(&c.seed, "seed", 1, "input seed; seed 1 is also checked against golden/seed1.json")
	secs := flag.Int("seconds", 25, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	spans := flag.String("spans", "", "traced runs write their spans to this JSON file")
	goldenOut := flag.String("golden-out", "", "write this workload's digests into this golden file instead of checking them")
	flag.Parse()
	c.window = time.Duration(*secs) * time.Second
	c.trace = *trace == 1

	if *goldenOut != "" {
		c.record = &golden{}
	} else if c.seed == 1 {
		g, err := loadGolden(seed1JSON)
		if err != nil {
			fatal(err)
		}
		c.golden = g
	}

	r, tr, err := run(context.Background(), c)
	if err != nil {
		fatal(err)
	}
	if tr != nil {
		printSelfTable(os.Stdout, tr.snapshot())
		if *spans != "" {
			if err := writeSpans(*spans, tr.snapshot()); err != nil {
				fatal(err)
			}
		}
	}
	if c.record != nil {
		if err := c.record.merge(*goldenOut); err != nil {
			fatal(err)
		}
	}
	if err := report(os.Stdout, c, r); err != nil {
		fatal(err)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

// report writes the run's metrics; the JSON line carries the
// end-to-end metrics, or with tracing the per-layer ones.
func report(w io.Writer, c config, r *result) error {
	if c.trace {
		return r.write(w, layerMetrics)
	}
	return r.write(w, e2eMetrics)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
