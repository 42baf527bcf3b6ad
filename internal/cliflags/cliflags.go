// Package cliflags is the shared flag surface of the cmd/ binaries.
// The knobs that used to be copy-pasted per binary (-predictor,
// -engine, -max-cycles, -timeout, -fault, -remote, -parallel, -json)
// register here exactly once, and the same struct turns them into a
// validated cpu.Config or a daemon client — so a new simulator knob
// lands in every binary by touching this package alone. The canonical
// flag table lives in README.md.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/dse"
	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/serve/client"
	"asbr/internal/workload"
)

// Sim carries the shared simulation flags. Zero-value defaults are
// applied by NewSim; binaries may override a default (e.g. MaxCycles)
// before registering, and the flag help reflects the override.
type Sim struct {
	Predictor string        // -predictor: predict spec (family[:k=v,...] or legacy alias)
	Engine    string        // -engine: cpu.EngineNames() vocabulary
	MaxCycles uint64        // -max-cycles: watchdog cycle budget
	Timeout   time.Duration // -timeout: wall-clock budget (0 = none)
	Fault     string        // -fault: fault-injection plan
	Remote    string        // -remote: asbr-serve address
	Parallel  int           // -parallel: worker cap (0 = GOMAXPROCS)
	JSON      bool          // -json: machine-readable output

	Trace       string // -trace: pipeline event trace JSONL path ("" = off)
	TraceSample uint64 // -trace-sample: keep every Nth event
	Metrics     string // -metrics: dump the process metrics registry ("-" = stdout)
	Record      string // -record: replay-record JSONL path ("" = off)
}

// NewSim returns the flag set with the binaries' common defaults.
func NewSim() *Sim {
	return &Sim{Predictor: "bimodal", MaxCycles: 1 << 32}
}

// RegisterMachine registers the machine-shape flags (-predictor,
// -engine) plus the budgets.
func (s *Sim) RegisterMachine(fs *flag.FlagSet) {
	fs.StringVar(&s.Predictor, "predictor", s.Predictor,
		"branch predictor spec family[:key=value,...]: families "+
			strings.Join(predict.FamilyNames(), "|")+
			" plus legacy aliases "+strings.Join(predict.Names(), "|")+
			" (e.g. tage:tables=4,hist=64; \"help\" lists parameters and defaults)")
	fs.StringVar(&s.Engine, "engine", s.Engine,
		"cycle engine: "+strings.Join(cpu.EngineNames(), "|")+" (auto = fastest the attached hooks permit)")
	s.RegisterBudget(fs)
}

// RegisterBudget registers -max-cycles and -timeout.
func (s *Sim) RegisterBudget(fs *flag.FlagSet) {
	fs.Uint64Var(&s.MaxCycles, "max-cycles", s.MaxCycles,
		"watchdog cycle budget (0 = engine default)")
	fs.DurationVar(&s.Timeout, "timeout", s.Timeout,
		"wall-clock budget (0 = none)")
}

// RegisterFault registers -fault.
func (s *Sim) RegisterFault(fs *flag.FlagSet) {
	fs.StringVar(&s.Fault, "fault", s.Fault,
		"inject faults per plan (kind[:rate=..,seed=..,max=..]; kinds none|bdt-flip|validity-skew|bit-alias|stale-bti) and lockstep-check divergence against the baseline")
}

// RegisterRemote registers -remote.
func (s *Sim) RegisterRemote(fs *flag.FlagSet) {
	fs.StringVar(&s.Remote, "remote", s.Remote,
		"run on an asbr-serve daemon at this address instead of locally")
}

// RegisterParallel registers -parallel.
func (s *Sim) RegisterParallel(fs *flag.FlagSet) {
	fs.IntVar(&s.Parallel, "parallel", s.Parallel,
		"max concurrent simulation jobs (0 = GOMAXPROCS, 1 = serial)")
}

// RegisterJSON registers -json.
func (s *Sim) RegisterJSON(fs *flag.FlagSet) {
	fs.BoolVar(&s.JSON, "json", s.JSON,
		"emit machine-readable output (the /v1 wire encoding)")
}

// Machine builds the platform every served, replayed and DSE run
// simulates (corpus.MachineFor) around the parsed flags: the named
// predictor and engine, the cycle budget. Flag values are validated
// here so a typo fails before a simulation starts.
func (s *Sim) Machine() (cpu.Config, error) {
	eng, err := cpu.ParseEngine(s.Engine)
	if err != nil {
		return cpu.Config{}, err
	}
	// ParseSpec validates the predictor (and makes "-predictor help"
	// surface the family/parameter listing as the error text).
	if _, err := predict.ParseSpec(s.Predictor); err != nil {
		return cpu.Config{}, err
	}
	return corpus.MachineFor(corpus.MachineSpec{Predictor: s.Predictor, Engine: eng, MaxCycles: s.MaxCycles})
}

// RegisterObs registers the observability flags (-trace, -trace-sample,
// -metrics).
func (s *Sim) RegisterObs(fs *flag.FlagSet) {
	fs.StringVar(&s.Trace, "trace", s.Trace,
		"record a pipeline event trace to this JSONL path (a chrome://tracing twin is written next to it)")
	fs.Uint64Var(&s.TraceSample, "trace-sample", s.TraceSample,
		"with -trace, retain every Nth event (0/1 = all; per-kind totals stay exact)")
	fs.StringVar(&s.Metrics, "metrics", s.Metrics,
		"dump the process metrics registry (Prometheus text) to this path on exit (\"-\" = stdout)")
}

// RegisterRecord registers -record.
func (s *Sim) RegisterRecord(fs *flag.FlagSet) {
	fs.StringVar(&s.Record, "record", s.Record,
		"append an asbr-replay/v1 record for every executed simulation to this JSONL path (replay with asbr-corpus replay)")
}

// NewTracer builds the tracer implied by -trace, or nil when tracing
// is off. Attach it via cpu.Config.Obs (and core.Engine.SetEventSink
// for ASBR runs) and finish with WriteFiles.
func (s *Sim) NewTracer() *obs.Tracer {
	if s.Trace == "" {
		return nil
	}
	return obs.NewTracer(obs.TracerConfig{Sample: s.TraceSample})
}

// DumpMetrics honours -metrics: it renders the process-wide registry
// to the named file or, for "-", stdout. A no-op when the flag is
// unset.
func (s *Sim) DumpMetrics() error {
	if s.Metrics == "" {
		return nil
	}
	var w io.Writer = os.Stdout
	if s.Metrics != "-" {
		f, err := os.Create(s.Metrics)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	obs.Default().WritePrometheus(w)
	return nil
}

// Context returns the run context implied by -timeout.
func (s *Sim) Context() (context.Context, context.CancelFunc) {
	if s.Timeout > 0 {
		return context.WithTimeout(context.Background(), s.Timeout)
	}
	return context.WithCancel(context.Background())
}

// Client returns a daemon client for the -remote address.
func (s *Sim) Client() *client.Client {
	return client.New(s.Remote)
}

// Cluster carries the asbr-cluster coordinator flags: the worker
// fleet and the fault-tolerance knobs (retry budget, hash fan-out,
// poll cadence).
type Cluster struct {
	Workers  string        // -workers: comma-separated asbr-serve addresses
	VNodes   int           // -vnodes: virtual nodes per worker on the hash ring
	Attempts int           // -retry-attempts: per-dispatch transient-retry budget
	Poll     time.Duration // -poll: job status poll interval
}

// NewCluster returns the coordinator flag set with its defaults.
func NewCluster() *Cluster {
	return &Cluster{Attempts: client.DefaultRetry.MaxAttempts, Poll: 100 * time.Millisecond}
}

// Register registers the coordinator flags.
func (c *Cluster) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Workers, "workers", c.Workers,
		"comma-separated asbr-serve worker addresses (required)")
	fs.IntVar(&c.VNodes, "vnodes", c.VNodes,
		"virtual nodes per worker on the consistent-hash ring (0 = 64)")
	fs.IntVar(&c.Attempts, "retry-attempts", c.Attempts,
		"tries per dispatch before a worker is marked dead and its keys rebalance")
	fs.DurationVar(&c.Poll, "poll", c.Poll,
		"job status poll interval")
}

// WorkerList parses -workers into trimmed, non-empty addresses.
func (c *Cluster) WorkerList() []string {
	var out []string
	for _, w := range strings.Split(c.Workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// DSE carries the asbr-dse search flags. The execution knobs
// (-remote, -parallel, -json, -timeout) ride on the shared Sim group;
// this group owns what is specific to design-space exploration: the
// workload, the evaluation budget, the search seed and mode, and the
// objective axes.
type DSE struct {
	Bench     string // -bench: workload.Names() vocabulary
	Budget    int    // -budget: distinct candidate evaluations
	Seed      int64  // -seed: search rng seed (restarts, mutations)
	Objective string // -objective: comma-separated score axes
	Search    string // -search: dse.SearchModes() vocabulary
	Samples   int    // -n: audio samples per evaluation
}

// NewDSE returns the search flag set with its defaults: a 32-candidate
// budget over the full three-axis objective, hill-climbing from the
// paper default.
func NewDSE() *DSE {
	return &DSE{
		Bench:     workload.ADPCMEncode,
		Budget:    32,
		Seed:      1,
		Objective: "cycles,energy,area",
		Search:    dse.SearchHill,
		Samples:   4096,
	}
}

// Register registers the search flags.
func (d *DSE) Register(fs *flag.FlagSet) {
	fs.StringVar(&d.Bench, "bench", d.Bench,
		"benchmark to explore: "+strings.Join(workload.Names(), "|"))
	fs.IntVar(&d.Budget, "budget", d.Budget,
		"distinct candidate evaluations before the search stops (failed attempts count)")
	fs.Int64Var(&d.Seed, "seed", d.Seed,
		"search seed for restarts and mutations (same seed + budget = byte-identical front)")
	fs.StringVar(&d.Objective, "objective", d.Objective,
		"comma-separated score axes for Pareto dominance: any subset of cycles,energy,area")
	fs.StringVar(&d.Search, "search", d.Search,
		"search mode: "+strings.Join(dse.SearchModes(), "|"))
	fs.IntVar(&d.Samples, "n", d.Samples,
		"audio samples per candidate evaluation")
}

// Options validates the parsed flags into search options. A typo fails
// here — before any simulation (or remote dispatch) starts.
func (d *DSE) Options(parallel int) (dse.Options, error) {
	if d.Budget <= 0 {
		return dse.Options{}, fmt.Errorf("budget must be positive (got %d)", d.Budget)
	}
	if d.Samples <= 0 || d.Samples > workload.MaxSamples {
		return dse.Options{}, fmt.Errorf("n %d out of range [1, %d]", d.Samples, workload.MaxSamples)
	}
	ok := false
	for _, n := range workload.Names() {
		if d.Bench == n {
			ok = true
		}
	}
	if !ok {
		return dse.Options{}, fmt.Errorf("unknown bench %q (want %s)", d.Bench, strings.Join(workload.Names(), "|"))
	}
	ok = false
	for _, m := range dse.SearchModes() {
		if d.Search == m {
			ok = true
		}
	}
	if !ok {
		return dse.Options{}, fmt.Errorf("unknown search mode %q (want %s)", d.Search, strings.Join(dse.SearchModes(), "|"))
	}
	obj, err := dse.ParseObjective(d.Objective)
	if err != nil {
		return dse.Options{}, err
	}
	return dse.Options{
		Bench:     d.Bench,
		Budget:    d.Budget,
		Seed:      d.Seed,
		Search:    d.Search,
		Objective: obj,
		Parallel:  parallel,
	}, nil
}

// Budgets builds the per-evaluation simulation budgets the flags
// imply.
func (d *DSE) Budgets(maxCycles uint64, timeout time.Duration) dse.Budgets {
	return dse.Budgets{
		Samples:   d.Samples,
		Seed:      1, // trace seed is fixed: the search seed drives exploration, not the input
		MaxCycles: maxCycles,
		TimeoutMS: timeout.Milliseconds(),
	}.FillDefaults()
}

// Retry builds the client retry policy implied by -retry-attempts.
func (c *Cluster) Retry() client.RetryPolicy {
	p := client.DefaultRetry
	p.MaxAttempts = c.Attempts
	return p
}
