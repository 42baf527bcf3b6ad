package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"asbr/internal/asm"
	"asbr/internal/cc"
	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/runner"
	"asbr/internal/sched"
	"asbr/internal/workload"
)

// job is one benchmark simulation of the plain and asbr workloads.
type job struct {
	bench, predictor string
	asbr             bool
}

func (j job) key() string { return j.bench + "/" + j.predictor }

// jobList is the four benchmarks under three predictors.
func jobList(asbr bool) []job {
	var out []job
	for _, b := range workload.Names() {
		for _, p := range []string{"bimodal", "gshare", "tage"} {
			out = append(out, job{bench: b, predictor: p, asbr: asbr})
		}
	}
	return out
}

// jobSet is the set-up state the plain and asbr passes share: one
// artifact store with every compiled benchmark, input trace, golden
// output and decode table already built.
type jobSet struct {
	arts *runner.Artifacts
	jobs []job
	n    int
	seed int64
}

func setupJobs(jobs []job, n int, seed int64) (*jobSet, error) {
	s := &jobSet{arts: &runner.Artifacts{}, jobs: jobs, n: n, seed: seed}
	for _, b := range workload.Names() {
		prog, err := s.arts.Program(b, workload.BuildOptionsFor(b, true))
		if err != nil {
			return nil, err
		}
		s.arts.Predecode(prog)
		if _, err := s.arts.Input(b, n, seed); err != nil {
			return nil, err
		}
		if _, err := s.arts.Expected(b, n, seed); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// jobOut is one finished job of a pass.
type jobOut struct {
	snap     obs.Snapshot
	engine   cpu.Engine
	outputOK bool
	dur      time.Duration
}

// pass runs every job once through corpus.RunBench, in order, moving
// to the next CPU before each job (see pinner); round offsets the
// rotation so that over successive passes each job meets every CPU.
func (s *jobSet) pass(ctx context.Context, pn *pinner, round int) ([]jobOut, error) {
	outs := make([]jobOut, len(s.jobs))
	for i, j := range s.jobs {
		pn.pin(round + i)
		start := time.Now()
		br, err := corpus.RunBench(ctx, s.arts, corpus.BenchRun{
			Bench: j.bench, Build: workload.BuildOptionsFor(j.bench, true),
			Spec: corpus.MachineSpec{Predictor: j.predictor},
			ASBR: j.asbr, Samples: s.n, Seed: s.seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.key(), err)
		}
		outs[i] = jobOut{snap: br.Res.Stats.Snapshot(), engine: br.Res.CPU.ResolvedEngine(), dur: time.Since(start)}
		outs[i].outputOK = s.outputOK(j.bench, br.Res.Output)
	}
	return outs, nil
}

func (s *jobSet) outputOK(bench string, got []int32) bool {
	want, err := s.arts.Expected(bench, s.n, s.seed)
	return err == nil && slices.Equal(got, want)
}

// stepper runs jobs one public step at a time: the calls
// corpus.RunBench makes, each inside a span, with the simulated work of
// every engine leg counted beside it.
type stepper struct {
	tr         *tracer
	instr      map[string]uint64 // simulated instructions per run span name
	superInstr uint64            // instructions simulated on the superblock engine
	allInstr   uint64
	measured   obs.Snapshot // accumulated measured runs (plain or folded)
	folded     obs.Snapshot // accumulated folded runs only
}

func newStepper(tr *tracer) *stepper {
	return &stepper{tr: tr, instr: make(map[string]uint64)}
}

// build compiles a benchmark with the paper's scheduling, the way
// workload.BuildOpt does, and predecodes it.
func (p *stepper) build(parent int, bench string) (*isa.Program, *cpu.Predecoded, error) {
	opt := workload.BuildOptionsFor(bench, true)
	src, err := workload.Source(bench)
	if opt.ManualSchedule {
		src, err = workload.ScheduledSource(bench)
	}
	if err != nil {
		return nil, nil, err
	}
	id := p.tr.begin(parent, 0, "cc.compile")
	text, err := cc.Compile(src)
	p.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = p.tr.begin(parent, 0, "asm.assemble")
	prog, err := asm.Assemble(text)
	p.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	if opt.CompilerSchedule {
		id = p.tr.begin(parent, 0, "sched.schedule")
		prog, _, err = sched.Schedule(prog)
		p.tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}
	id = p.tr.begin(parent, 0, "cpu.predecode")
	pre := cpu.Predecode(prog)
	p.tr.end(id)
	return prog, pre, nil
}

// run executes one job: a plain run, or the profile, select and fold
// flow. It returns the measured run.
func (p *stepper) run(ctx context.Context, parent, req int, prog *isa.Program, pre *cpu.Predecoded, j job, in []int32, n int) (*workload.Result, error) {
	cfg, err := corpus.MachineFor(corpus.MachineSpec{Predictor: j.predictor})
	if err != nil {
		return nil, err
	}
	cfg.Predecoded = pre
	if !j.asbr {
		res, err := p.sim(ctx, parent, req, "cpu.run.plain", prog, cfg, in, n)
		if err == nil {
			p.measured.Accumulate(res.Stats.Snapshot())
		}
		return res, err
	}
	prof := profile.New(predict.Must(predict.NewBimodal(512)))
	pcfg := cfg
	pcfg.Observer = prof
	if _, err := p.sim(ctx, parent, req, "cpu.run.profile", prog, pcfg, in, n); err != nil {
		return nil, err
	}
	id := p.tr.begin(parent, req, "profile.select")
	eng, _, err := corpus.BuildEngineBanked(prog, prof, corpus.ResolveBITEntries(j.bench, 0), 0, n)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	fcfg := cfg
	fcfg.Fold = eng
	res, err := p.sim(ctx, parent, req, "cpu.run.fold", prog, fcfg, in, n)
	if err == nil {
		p.measured.Accumulate(res.Stats.Snapshot())
		p.folded.Accumulate(res.Stats.Snapshot())
	}
	return res, err
}

func (p *stepper) sim(ctx context.Context, parent, req int, name string, prog *isa.Program, cfg cpu.Config, in []int32, n int) (*workload.Result, error) {
	id := p.tr.begin(parent, req, name)
	res, err := workload.RunContext(ctx, prog, cfg, in, n)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	p.instr[name] += res.Stats.Instructions
	p.allInstr += res.Stats.Instructions
	if res.CPU.ResolvedEngine() == cpu.EngineSuperblock {
		p.superInstr += res.Stats.Instructions
	}
	return res, nil
}

// tracedJobs holds the step-built programs a traced pass runs.
type tracedJobs struct {
	set   *jobSet
	steps *stepper
	progs map[string]*isa.Program
	pres  map[string]*cpu.Predecoded
}

func buildTracedJobs(set *jobSet, steps *stepper) (*tracedJobs, error) {
	t := &tracedJobs{set: set, steps: steps, progs: map[string]*isa.Program{}, pres: map[string]*cpu.Predecoded{}}
	root := steps.tr.begin(0, 0, "setup")
	defer steps.tr.end(root)
	for _, b := range workload.Names() {
		prog, pre, err := steps.build(root, b)
		if err != nil {
			return nil, err
		}
		t.progs[b], t.pres[b] = prog, pre
	}
	return t, nil
}

// pass runs every job step by step under one "pass" span, rotating
// CPUs as jobSet.pass does.
func (t *tracedJobs) pass(ctx context.Context, pn *pinner, round int) ([]jobOut, error) {
	tr := t.steps.tr
	root := tr.begin(0, 0, "pass")
	defer tr.end(root)
	outs := make([]jobOut, len(t.set.jobs))
	for i, j := range t.set.jobs {
		in, err := t.set.arts.Input(j.bench, t.set.n, t.set.seed)
		if err != nil {
			return nil, err
		}
		pn.pin(round + i)
		start := time.Now()
		id := tr.begin(root, i+1, "job")
		res, err := t.steps.run(ctx, id, i+1, t.progs[j.bench], t.pres[j.bench], j, in, t.set.n)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.key(), err)
		}
		outs[i] = jobOut{snap: res.Stats.Snapshot(), engine: res.CPU.ResolvedEngine(), dur: time.Since(start)}
		outs[i].outputOK = t.set.outputOK(j.bench, res.Output)
	}
	return outs, nil
}

// runJobs is the plain or asbr workload. A non-nil steps makes it a
// traced run: traced passes alternate with untraced ones and run
// through steps.
func runJobs(ctx context.Context, c config, asbr bool, r *result, steps *stepper) error {
	n := c.plainN
	if asbr {
		n = c.asbrN
	}
	jobs := jobList(asbr)
	pn := newPinner()
	defer pn.release()

	var set *jobSet
	var setups []float64
	for i := 0; i < c.setupReps; i++ {
		pn.pin(i)
		collect()
		start := time.Now()
		var err error
		if set, err = setupJobs(jobs, n, c.seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	ref, err := set.pass(ctx, pn, 0) // warm-up; its counts are the reference
	if err != nil {
		return err
	}
	golden := c.golden.plain()
	if asbr {
		golden = c.golden.asbr()
	}
	for i, j := range jobs {
		r.check(ref[i].outputOK, "%s: output differs from the golden model", j.key())
		digest := corpus.SnapshotDigest(ref[i].snap)
		if golden != nil {
			r.check(golden[j.key()] == digest, "%s: snapshot digest %s, golden %s", j.key(), digest, golden[j.key()])
		}
		c.record.setJob(asbr, j.key(), digest)
	}

	var traced *tracedJobs
	if steps != nil {
		if traced, err = buildTracedJobs(set, steps); err != nil {
			return err
		}
	}

	cal := &calibrator{}
	var allocs []float64
	perJob := make([][]float64, len(jobs))       // ms per untraced run of each job
	perJobTraced := make([][]float64, len(jobs)) // ms per traced run of each job
	start := time.Now()
	passes := 0
	for i := 0; len(allocs) == 0 || (traced != nil && len(perJobTraced[0]) == 0) || time.Since(start) < c.window; i++ {
		runTraced := traced != nil && i%2 == 1
		cal.sampleEach(pn)
		collect()
		am := startAlloc()
		var outs []jobOut
		if runTraced {
			outs, err = traced.pass(ctx, pn, len(perJobTraced[0]))
		} else {
			outs, err = set.pass(ctx, pn, passes)
		}
		if err != nil {
			return err
		}
		into := perJobTraced
		if !runTraced {
			allocs = append(allocs, am.mb())
			into = perJob
			passes++
		}
		for k, o := range outs {
			r.check(o.snap == ref[k].snap && o.outputOK, "%s: pass %d snapshot or output differs from the warm-up pass", jobs[k].key(), i)
			into[k] = append(into[k], millis(o.dur))
		}
	}

	best := bests(perJob)
	addEndToEnd(r, setups, best, allocs, cal)
	r.add("passes", float64(passes), "count")
	engines := map[cpu.Engine]int{}
	for _, o := range ref {
		engines[o.engine]++
	}
	for _, e := range []cpu.Engine{cpu.EngineSuperblock, cpu.EngineFast, cpu.EngineReference} {
		r.add("cpu.engine_"+e.String()+"_jobs", float64(engines[e]), "count")
	}
	if traced != nil {
		r.add("trace.overhead_frac", sum(bests(perJobTraced))/sum(best)-1, "frac")
	}
	return nil
}

// layerProbe runs the four benchmarks plain and through the ASBR flow,
// step by step, so every traced run measures every compiler and engine
// layer whichever workload it drives. The probe's work is fixed by the
// seed, so its counts repeat exactly.
func layerProbe(ctx context.Context, c config, tr *tracer) (*stepper, error) {
	p := newStepper(tr)
	root := tr.begin(0, 0, "probe")
	defer tr.end(root)
	for _, b := range workload.Names() {
		prog, pre, err := p.build(root, b)
		if err != nil {
			return nil, err
		}
		in, err := workload.Input(b, c.probeN, c.seed)
		if err != nil {
			return nil, err
		}
		for _, asbr := range []bool{false, true} {
			if _, err := p.run(ctx, root, 0, prog, pre, job{bench: b, predictor: "bimodal", asbr: asbr}, in, c.probeN); err != nil {
				return nil, fmt.Errorf("probe %s: %w", b, err)
			}
		}
	}
	return p, nil
}

// addLayerMetrics derives the per-layer metrics: host time per call or
// per simulated instruction from every span of the run, and the
// deterministic counts from the probe alone.
func addLayerMetrics(r *result, spans []span, probe *stepper, steps []*stepper) {
	st := selfTimes(spans)
	perCall := func(name string) float64 {
		if lt := st[name]; lt != nil && lt.calls > 0 {
			return millis(lt.self) / float64(lt.calls)
		}
		return 0
	}
	perInstr := func(name string) float64 {
		var instr uint64
		for _, s := range steps {
			instr += s.instr[name]
		}
		if lt := st[name]; lt != nil && instr > 0 {
			return float64(lt.self.Nanoseconds()) / float64(instr)
		}
		return 0
	}
	r.add("cc.compile_ms", perCall("cc.compile"), "ms")
	r.add("asm.assemble_ms", perCall("asm.assemble"), "ms")
	r.add("sched.schedule_ms", perCall("sched.schedule"), "ms")
	r.add("cpu.predecode_ms", perCall("cpu.predecode"), "ms")
	r.add("cpu.plain_ns_per_instr", perInstr("cpu.run.plain"), "ns/instr")
	r.add("cpu.profile_ns_per_instr", perInstr("cpu.run.profile"), "ns/instr")
	r.add("cpu.fold_ns_per_instr", perInstr("cpu.run.fold"), "ns/instr")
	r.add("profile.select_ms", perCall("profile.select"), "ms")
	r.add("cpu.superblock_instr_frac", float64(probe.superInstr)/float64(probe.allInstr), "frac")
	r.add("core.fold_coverage", probe.folded.FoldCoverage, "frac")
	r.add("core.fold_fallbacks", float64(probe.folded.FoldFallbacks), "count")
	r.add("cpu.sim_instr", float64(probe.measured.Instructions), "count")
	r.add("cpu.sim_cycles", float64(probe.measured.Cycles), "count")
}
