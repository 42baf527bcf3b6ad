package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/experiment"
	"asbr/internal/obs"
	"asbr/internal/runner"
	"asbr/internal/workload"
)

// Config tunes the daemon. The zero value is usable; Fill applies the
// defaults listed per field.
type Config struct {
	QueueDepth int // bounded job queue capacity (default 64; 429 beyond it)
	Workers    int // worker goroutines draining the queue (default GOMAXPROCS)

	// SweepParallel caps the per-sweep worker pool a /v1/sweep request
	// may ask for (0 = GOMAXPROCS). Sweep results are invariant under
	// this knob (the experiment engine's determinism contract).
	SweepParallel int

	DefaultSamples   int           // samples when a request leaves them 0 (default 4096)
	MaxSamples       int           // hard per-request cap (default workload.MaxSamples)
	DefaultMaxCycles uint64        // watchdog budget when a request leaves it 0 (default 1<<32)
	DefaultTimeout   time.Duration // wall-clock budget when a request leaves it 0 (default 2m)
	MaxBodyBytes     int64         // request body cap (default 1MiB)

	// Record, when non-nil, receives a replay record for every
	// simulation the daemon actually executes (coalesced replays are
	// served from cache and recorded once, at build time; traced jobs
	// bypass the cache and record per execution). The callback must be
	// safe for concurrent use — corpus.LogWriter.Append is the intended
	// sink, turning served traffic into an asbr-replay/v1 regression
	// suite for `asbr-corpus replay`.
	Record func(corpus.Record)

	// WorkerID labels this daemon in a cluster fleet: it rides in the
	// /v1/readyz payload so a coordinator's provenance reports can name
	// workers stably across restarts and ephemeral ports. Empty is fine
	// for a standalone daemon.
	WorkerID string

	Logf func(format string, args ...any) // optional logger (nil = silent)
}

// Fill applies defaults in place and returns the config.
func (c Config) Fill() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultSamples <= 0 {
		c.DefaultSamples = 4096
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = workload.MaxSamples
	}
	if c.DefaultMaxCycles == 0 {
		c.DefaultMaxCycles = 1 << 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server is the simulation service: a bounded task queue drained by a
// fixed worker set, per-key single-flight coalescing caches for sim
// and sweep requests, a process-wide artifact store shared by every
// request, an async job registry, and the metrics counter set.
type Server struct {
	cfg Config

	arts   runner.Artifacts                             // compiled programs / traces, shared across requests
	sims   runner.Cache[string, *SimResponse]           // sim coalescing + result cache
	sweeps runner.Cache[string, *experiment.TablesJSON] // sweep coalescing + result cache

	tasks    chan func()
	wg       sync.WaitGroup
	draining atomic.Bool

	met *metrics

	// totals is the service-lifetime aggregate Snapshot over every
	// simulation actually executed (coalesced replays count once, at
	// build time) — the GET /v1/stats payload.
	statMu sync.Mutex
	totals obs.Snapshot

	jobMu  sync.Mutex
	jobSeq int
	jobs   map[string]*JobStatus
	traces map[string]*Trace // finished traced jobs, by job ID

	// testHook, when set (package tests only), runs on the worker
	// goroutine before each task — used to hold workers busy so queue
	// overflow is deterministic.
	testHook func()
}

// New builds a server and starts its workers. Call Drain to stop them.
func New(cfg Config) *Server {
	s := &Server{
		cfg:    cfg.Fill(),
		jobs:   make(map[string]*JobStatus),
		traces: make(map[string]*Trace),
	}
	// A run cut short by its wall-clock budget depends on host load, so
	// it answers the requests coalesced on it and is then forgotten: a
	// retry simulates again. Every other outcome stays cached, errors
	// included.
	s.sims.Transient = func(_ *SimResponse, err error) bool { return cpu.CodeOf(err) == cpu.ErrCanceled }
	s.sweeps.Transient = func(t *experiment.TablesJSON, _ error) bool { return t != nil && t.Canceled() }
	s.tasks = make(chan func(), s.cfg.QueueDepth)
	s.met = newMetrics(s) // after tasks: the registry reads queue state live
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) worker() {
	defer s.wg.Done()
	for run := range s.tasks {
		if s.testHook != nil {
			s.testHook()
		}
		run()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// QueueLen reports how many tasks are waiting (not yet picked up).
func (s *Server) QueueLen() int { return len(s.tasks) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Ready reports whether the daemon should receive new work: alive,
// not draining, and with at least one free slot in the bounded queue.
// This is the readiness signal (distinct from liveness): a saturated
// queue answers every submission with 429 anyway, so a coordinator or
// load balancer probing /v1/readyz routes around the daemon until the
// backlog drains instead of burning its retry budget against it.
func (s *Server) Ready() bool {
	return !s.draining.Load() && len(s.tasks) < cap(s.tasks)
}

// readyStatus names the not-ready cause for the /v1/readyz payload.
func (s *Server) readyStatus() string {
	switch {
	case s.draining.Load():
		return "draining"
	case len(s.tasks) >= cap(s.tasks):
		return "saturated"
	}
	return "ok"
}

// Drain stops admission, lets the workers finish every queued task —
// in-flight and queued async jobs run to completion — and returns once
// the pool is idle. The HTTP layer must be shut down first (no handler
// may be mid-enqueue when the queue closes); cmd/asbr-serve calls
// http.Server.Shutdown before Drain for exactly this reason.
func (s *Server) Drain() {
	if s.draining.Swap(true) {
		return
	}
	close(s.tasks)
	s.wg.Wait()
}

// submit enqueues a task without blocking: a full queue is immediate
// backpressure (429), not an unbounded wait.
func (s *Server) submit(run func()) error {
	if s.draining.Load() {
		return errDraining
	}
	select {
	case s.tasks <- run:
		return nil
	default:
		return errBackpressure
	}
}

// admit answers one coalescable request from cache c: a key the cache
// already holds joins that entry (no queue slot consumed); otherwise
// the build is admitted through the bounded queue and runs on a worker.
// Results — including deterministic simulation errors — are cached
// permanently, so replays of a completed request never run again; a
// canceled one (see New) is not.
func admit[V any](s *Server, c *runner.Cache[string, V], key string, build func() (V, error)) (V, error) {
	if v, ok, err := c.Join(key); ok {
		return v, err
	}
	type out struct {
		v   V
		err error
	}
	ch := make(chan out, 1)
	if err := s.submit(func() {
		v, err := c.Get(key, build)
		ch <- out{v, err}
	}); err != nil {
		var zero V
		return zero, err
	}
	o := <-ch
	return o.v, o.err
}

// runSweep executes a sweep. A sweep with annotated cell errors still
// returns its TablesJSON (the cells carry their own structured errors)
// — only a request-level failure is an error here.
func (s *Server) runSweep(req *SweepRequest) (*experiment.TablesJSON, error) {
	s.met.sweepRuns.Add(1)
	tabs, err := experiment.NewSweep(req.Options()).Tables(req.Tables)
	if tabs != nil {
		// Executed sweep cells are simulations too: fold their
		// snapshots into the service-lifetime totals so /v1/stats (and
		// a cluster coordinator's fleet aggregate) reflects sweep
		// workloads, not just /v1/sim traffic. Coalesced repeats hit
		// the cache and never reach here, matching sim semantics.
		s.statMu.Lock()
		for _, snap := range tabs.Snapshots() {
			s.totals.Accumulate(snap)
		}
		s.statMu.Unlock()
		// Cell- and table-level failures are part of the payload;
		// clients inspect tabs.Errors / per-cell error fields.
		return tabs, nil
	}
	return nil, err
}

// simulate executes one simulation request on the calling goroutine.
// Budgets come from the normalized request: the cycle watchdog rides
// in the CPU config and the wall-clock budget is a context deadline
// rooted at Background — a disconnecting HTTP client must not cancel
// (and thereby poison the cached result of) a run that coalesced
// requests may be waiting on. A non-nil tr records the measured run's
// pipeline event stream (traced jobs only; such runs bypass the
// coalescing cache so the trace belongs to this execution).
func (s *Server) simulate(req *SimRequest, tr *obs.Tracer) (*SimResponse, error) {
	s.met.simRuns.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), req.Timeout())
	defer cancel()

	start := time.Now()
	resp, err := s.simulateCtx(ctx, req, tr)
	s.met.simDuration.Observe(time.Since(start).Seconds())
	if err != nil {
		if code := cpu.CodeOf(err); code != cpu.ErrNone {
			s.logf("sim %s: %s", req.Key(), code)
		}
		return nil, err
	}
	s.met.simCycles.Add(resp.Stats.Cycles)
	s.statMu.Lock()
	s.totals.Accumulate(resp.Stats)
	s.statMu.Unlock()
	if s.cfg.Record != nil {
		s.cfg.Record(recordFor(req, resp))
	}
	return resp, nil
}

func (s *Server) simulateCtx(ctx context.Context, req *SimRequest, tr *obs.Tracer) (*SimResponse, error) {
	if req.Bench != "" {
		return s.simulateBench(ctx, req, tr)
	}
	return s.simulateSource(ctx, req, tr)
}

// machineSpec projects a normalized request onto the shared machine
// spec. The engine is left at the zero value (EngineAuto) — the daemon
// never picks a step loop itself; cpu.SelectEngine resolves it from
// the hooks on the final config, so a recording daemon runs on the
// same engine as any other.
func (s *Server) machineSpec(req *SimRequest) corpus.MachineSpec {
	return corpus.MachineSpec{
		Predictor: req.Predictor,
		MaxCycles: req.MaxCycles,
		Update:    req.Update,
		ICacheKB:  req.ICacheKB,
		DCacheKB:  req.DCacheKB,
	}
}

// simulateBench runs a built-in benchmark through the shared
// corpus.RunBench execution path over the daemon's artifact store: the
// compiled program, input trace and golden output are each built once
// per daemon no matter how many requests touch them.
func (s *Server) simulateBench(ctx context.Context, req *SimRequest, tr *obs.Tracer) (*SimResponse, error) {
	br, err := corpus.RunBench(ctx, &s.arts, corpus.BenchRun{
		Bench:      req.Bench,
		Build:      req.BuildOptions(),
		Spec:       s.machineSpec(req),
		ASBR:       req.ASBR,
		BITEntries: req.BITEntries,
		BITBanks:   req.BITBanks,
		Samples:    req.Samples,
		Seed:       req.Seed,
		Trace:      tr,
	})
	if err != nil {
		return nil, err
	}
	resp := &SimResponse{
		Bench: req.Bench, Predictor: req.Predictor, ASBR: req.ASBR,
		Samples: req.Samples, Seed: req.Seed,
		Stats: encodeStats(br.Res.Stats), ExitCode: br.Res.CPU.ExitCode(),
	}
	if want, err := s.arts.Expected(req.Bench, req.Samples, req.Seed); err == nil {
		ok := slices.Equal(br.Res.Output, want)
		resp.OutputOK = &ok
	}
	fillASBR(resp, br)
	return resp, nil
}

// simulateSource builds the posted program and runs it bare (no
// benchmark input pouring) through the shared corpus.RunSource
// execution path. A program that fails to build is the client's error
// (bad-program, 400), not the simulator's.
func (s *Server) simulateSource(ctx context.Context, req *SimRequest, tr *obs.Tracer) (*SimResponse, error) {
	prog, err := corpus.BuildSource(req.Source, req.Compile, req.Schedule)
	if err != nil {
		return nil, badProgram(err)
	}
	br, err := corpus.RunSource(ctx, prog, corpus.SourceRun{
		Spec:       s.machineSpec(req),
		ASBR:       req.ASBR,
		BITEntries: req.BITEntries,
		BITBanks:   req.BITBanks,
		Trace:      tr,
	})
	if err != nil {
		return nil, err
	}
	c := br.Res.CPU
	resp := &SimResponse{
		Predictor: req.Predictor, ASBR: req.ASBR,
		Stats: encodeStats(br.Res.Stats), Output: c.Output, ExitCode: c.ExitCode(),
	}
	fillASBR(resp, br)
	return resp, nil
}

// fillASBR adds an ASBR run's selection size and its gain over the
// profiled baseline to the response.
func fillASBR(resp *SimResponse, br *corpus.BenchResult) {
	if !resp.ASBR {
		return
	}
	resp.BITEntries = br.Loaded
	resp.BaselineCycles = br.BaselineCycles
	resp.Improvement = 1 - float64(br.Res.Stats.Cycles)/float64(br.BaselineCycles)
}

// submitJob validates and enqueues an async job, returning its queued
// status. The job's task runs directly on a worker (it already holds
// the slot), sharing the same coalescing caches as the sync endpoints.
func (s *Server) submitJob(req *JobRequest) (*JobStatus, error) {
	if (req.Sim == nil) == (req.Sweep == nil) {
		return nil, badRequest("exactly one of sim and sweep must be set")
	}
	kind := "sim"
	if req.Sweep != nil {
		kind = "sweep"
		if err := normalizeSweep(req.Sweep, s.cfg); err != nil {
			return nil, err
		}
	} else if err := normalizeSim(req.Sim, s.cfg); err != nil {
		return nil, err
	}

	s.jobMu.Lock()
	s.jobSeq++
	job := &JobStatus{ID: fmt.Sprintf("j%06d", s.jobSeq), Kind: kind, State: JobQueued}
	s.jobs[job.ID] = job
	s.jobMu.Unlock()

	run := func() {
		s.setJobState(job.ID, JobRunning)
		var done JobStatus
		if kind == "sim" && req.Trace {
			// Traced runs bypass the coalescing cache: the recorded
			// event stream must belong to this submission's own
			// execution, not a cached replay's.
			tr := obs.NewTracer(obs.TracerConfig{Sample: req.TraceSample})
			v, err := s.simulate(req.Sim, tr)
			done = jobOutcome(err)
			done.Sim = v
			if err == nil {
				s.storeTrace(job.ID, tr)
			}
		} else if kind == "sim" {
			v, err := s.sims.Get(req.Sim.Key(), func() (*SimResponse, error) { return s.simulate(req.Sim, nil) })
			done = jobOutcome(err)
			done.Sim = v
		} else {
			v, err := s.sweeps.Get(req.Sweep.Key(), func() (*experiment.TablesJSON, error) { return s.runSweep(req.Sweep) })
			done = jobOutcome(err)
			done.Sweep = v
		}
		s.finishJob(job.ID, done)
		s.met.jobsCompleted.Add(1)
		s.logf("job %s (%s) %s", job.ID, kind, done.State)
	}
	// Snapshot the queued status before the task can run: the worker
	// owns job's mutable fields the instant submit succeeds.
	snap := *job
	if err := s.submit(run); err != nil {
		s.jobMu.Lock()
		delete(s.jobs, job.ID)
		s.jobMu.Unlock()
		return nil, err
	}
	s.met.jobsSubmitted.Add(1)
	return &snap, nil
}

// jobOutcome maps a task result onto terminal job state + error body.
func jobOutcome(err error) JobStatus {
	if err == nil {
		return JobStatus{State: JobDone}
	}
	_, body := toHTTP(err)
	return JobStatus{State: JobFailed, Error: &body}
}

func (s *Server) setJobState(id, state string) {
	s.jobMu.Lock()
	if j := s.jobs[id]; j != nil {
		j.State = state
	}
	s.jobMu.Unlock()
}

func (s *Server) finishJob(id string, done JobStatus) {
	s.jobMu.Lock()
	if j := s.jobs[id]; j != nil {
		j.State = done.State
		j.Sim = done.Sim
		j.Sweep = done.Sweep
		j.Error = done.Error
	}
	s.jobMu.Unlock()
}

// job returns a snapshot of the job's current status.
func (s *Server) job(id string) (*JobStatus, error) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, notFound("unknown job %q", id)
	}
	snap := *j
	return &snap, nil
}

// storeTrace encodes a finished traced job's event stream for
// GET /v1/jobs/{id}/trace.
func (s *Server) storeTrace(id string, tr *obs.Tracer) {
	t := &Trace{
		JobID:   id,
		Sample:  tr.Sample(),
		Total:   tr.Total(),
		Dropped: tr.Dropped(),
		Counts:  tr.CountsByKind(),
		Events:  tr.Events(),
	}
	s.jobMu.Lock()
	s.traces[id] = t
	s.jobMu.Unlock()
}

// jobTrace returns a finished traced job's recorded event stream.
func (s *Server) jobTrace(id string) (*Trace, error) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if s.jobs[id] == nil {
		return nil, notFound("unknown job %q", id)
	}
	t := s.traces[id]
	if t == nil {
		return nil, notFound("job %q has no trace (submit with \"trace\": true and wait for it to finish)", id)
	}
	return t, nil
}

// serviceStats assembles the GET /v1/stats payload: the lifetime
// Snapshot aggregate plus service-level counters and queue state.
func (s *Server) serviceStats() *ServiceStats {
	s.statMu.Lock()
	totals := s.totals
	s.statMu.Unlock()
	return &ServiceStats{
		Totals:        totals,
		SimRuns:       s.met.simRuns.Load(),
		SweepRuns:     s.met.sweepRuns.Load(),
		JobsSubmitted: s.met.jobsSubmitted.Load(),
		JobsCompleted: s.met.jobsCompleted.Load(),
		QueueDepth:    len(s.tasks),
		QueueCapacity: cap(s.tasks),
		Workers:       s.cfg.Workers,
	}
}
