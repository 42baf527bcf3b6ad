package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"time"

	"asbr/internal/corpus"
	"asbr/internal/obs"
	"asbr/internal/runner"
	"asbr/internal/serve"
	"asbr/internal/serve/client"
	"asbr/internal/workload"
)

// Request classes of the serve mix.
const (
	classHit    = "hit"    // exact repeat of an earlier request: a coalescing-cache hit
	classSource = "source" // generated MiniC, compiled and scheduled, half of them ASBR
	classBench  = "bench"  // ADPCM benchmark, plain
	classASBR   = "asbr"   // ADPCM benchmark, profile, select and fold
)

var classes = []string{classHit, classSource, classBench, classASBR}

// logEntry is one request of the seeded request log.
type logEntry struct {
	class string
	orig  int // index of the request a hit repeats; its own index otherwise
	req   serve.SimRequest
}

// genLog builds n requests from seed: 50% generated source jobs, 30%
// ADPCM bench sims at benchN samples, and 20% exact repeats of earlier
// requests, in a seeded order. The shares are exact, not drawn per
// request, so a seed changes what the requests are but not how many of
// each kind there are, which would move every metric with it. Half the
// source and half the bench requests are ASBR; bench requests cycle
// through every benchmark, predictor and ASBR setting. Generated
// programs do not nest loops or conditionals (LoopDepth 1): that keeps
// source jobs compile-dominated and leaves the latency tail to the ASBR
// bench class, which is the same work for every seed. From depth two
// up a few generated programs per seed simulate for longer than any
// bench request, and the p99 follows whichever seed drew them.
func genLog(seed int64, n, benchN int) ([]logEntry, error) {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]string, n)
	for i := range kinds {
		switch {
		case i < n/2:
			kinds[i] = classSource
		case i < n/2+3*n/10:
			kinds[i] = classBench
		default:
			kinds[i] = classHit
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	if n > 0 && kinds[0] == classHit { // a repeat needs an earlier request
		k := slices.IndexFunc(kinds, func(c string) bool { return c != classHit })
		kinds[0], kinds[k] = kinds[k], kinds[0]
	}
	preds := []string{"bimodal", "gshare", "tage"}
	benches := []string{workload.ADPCMEncode, workload.ADPCMDecode}
	out := make([]logEntry, 0, n)
	nsource, nbench := 0, 0
	for i, kind := range kinds {
		switch kind {
		case classHit:
			orig := out[rng.Intn(i)].orig
			out = append(out, logEntry{class: classHit, orig: orig, req: out[orig].req})
		case classSource:
			src, err := corpus.Generate(rng.Int63(), corpus.Knobs{LoopDepth: 1})
			if err != nil {
				return nil, err
			}
			req := serve.SimRequest{Source: src, Compile: true, Schedule: true, ASBR: nsource%2 == 1}
			nsource++
			out = append(out, logEntry{class: classSource, orig: i, req: req})
		default:
			req := serve.SimRequest{
				Bench: benches[nbench/6%2], Predictor: preds[nbench%3], ASBR: nbench/3%2 == 1,
				Samples: benchN, Seed: rng.Int63n(1<<31) + 1,
			}
			nbench++
			class := classBench
			if req.ASBR {
				class = classASBR
			}
			out = append(out, logEntry{class: class, orig: i, req: req})
		}
	}
	return out, nil
}

// replaySubset returns the log indexes replayed cold after the window:
// every 50th distinct (non-repeat) request.
func replaySubset(log []logEntry) []int {
	var out []int
	distinct := 0
	for i, e := range log {
		if e.class == classHit {
			continue
		}
		if distinct%50 == 0 {
			out = append(out, i)
		}
		distinct++
	}
	return out
}

// recordFor maps a request onto the replay record corpus.Run rebuilds
// it from, with the defaults the daemon fills in.
func recordFor(req serve.SimRequest) corpus.Record {
	rec := corpus.Record{Config: corpus.ReplayConfig{Predictor: req.Predictor, ASBR: req.ASBR}}
	if req.Bench == "" {
		rec.Source, rec.Compile, rec.Schedule = req.Source, req.Compile, req.Schedule
		rec.Key = corpus.SourceKey(req.Source)
		return rec
	}
	rec.Bench = req.Bench
	rec.Key = runner.NewProgramKey(req.Bench, workload.BuildOptionsFor(req.Bench, true)).Canonical()
	rec.Config.Samples, rec.Config.Seed = req.Samples, req.Seed
	return rec
}

// daemon is an in-process serve.Server behind a loopback HTTP server.
type daemon struct {
	srv *serve.Server
	hs  *httptest.Server
	cl  *client.Client
}

func boot(ctx context.Context) (*daemon, error) {
	srv := serve.New(serve.Config{Workers: 2})
	hs := httptest.NewServer(srv.Handler())
	d := &daemon{srv: srv, hs: hs, cl: client.New(hs.URL)}
	if _, err := d.cl.Healthz(ctx); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the HTTP server, then drains the workers.
func (d *daemon) close() {
	d.hs.Close()
	d.srv.Drain()
}

// scrape reads the daemon's sim cache and sim duration counters.
type scrape struct{ gets, builds, simSum, simCount float64 }

func (d *daemon) scrape(ctx context.Context) (scrape, error) {
	text, err := d.cl.Metrics(ctx)
	if err != nil {
		return scrape{}, err
	}
	want := map[string]*float64{}
	var s scrape
	want["asbr_serve_sim_cache_gets_total"] = &s.gets
	want["asbr_serve_sim_cache_builds_total"] = &s.builds
	want["asbr_serve_sim_duration_seconds_sum"] = &s.simSum
	want["asbr_serve_sim_duration_seconds_count"] = &s.simCount
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if p := want[name]; ok && p != nil {
			if *p, err = strconv.ParseFloat(val, 64); err != nil {
				return scrape{}, fmt.Errorf("metrics: %s: %w", name, err)
			}
			delete(want, name)
		}
	}
	if len(want) > 0 {
		return scrape{}, fmt.Errorf("metrics: %d series missing", len(want))
	}
	return s, nil
}

// outcome is one served request of a pass.
type outcome struct {
	err     error
	snap    obs.Snapshot
	outOK   bool
	latency time.Duration
}

// drive issues the whole log from one closed-loop caller, moving the
// process to the next CPU before each request (see pinner); round
// offsets the rotation so that over successive passes each request
// meets every CPU. With a tracer every request gets a span, and its
// response is encoded again the way the daemon writes it, to time
// encoding.
func drive(ctx context.Context, d *daemon, log []logEntry, tr *tracer, pn *pinner, round int) []outcome {
	outs := make([]outcome, len(log))
	for i, e := range log {
		o := &outs[i]
		pn.pin(round + i)
		start := time.Now()
		id := tr.begin(0, i+1, "serve."+e.class)
		resp, err := d.cl.Sim(ctx, e.req)
		tr.end(id)
		o.latency = time.Since(start)
		if o.err = err; err != nil {
			continue
		}
		o.snap = resp.Stats
		// Only bench responses carry the golden-model verdict.
		o.outOK = e.req.Bench == "" || resp.OutputOK != nil && *resp.OutputOK
		if tr != nil {
			id := tr.begin(0, i+1, "serve.encode")
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			o.err = enc.Encode(resp)
			tr.end(id)
		}
	}
	return outs
}

// runServe is the serve workload. Every pass replays the same seeded
// log against a freshly booted daemon, so passes do identical work
// from an empty cache and each request's fastest latency can be taken.
func runServe(ctx context.Context, c config, r *result, tr *tracer) error {
	pn := newPinner()
	defer pn.release()
	var setups []float64
	setupPass := func() ([]logEntry, *daemon, error) {
		pn.pin(len(setups))
		collect()
		start := time.Now()
		log, err := genLog(c.seed, c.serveLog, c.serveN)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		d, err := boot(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return log, d, nil
	}

	log, d, err := setupPass()
	if err != nil {
		return err
	}
	ref := drive(ctx, d, log, nil, pn, 0) // warm-up; its snapshots are the reference
	d.close()
	for i, o := range ref {
		r.check(o.err == nil && o.outOK, "serve warm-up request %d (%s): err=%v output_ok=%t", i, log[i].class, o.err, o.outOK)
		if e := log[i]; e.class == classHit {
			r.check(o.snap == ref[e.orig].snap, "serve request %d: repeat of %d returned a different snapshot", i, e.orig)
		}
	}
	replayCold(c, r, log, ref)

	cal := &calibrator{}
	perReq := make([][]float64, len(log)) // ms per untraced serving of each request
	var walls, tracedWalls, allocs []float64
	var missSum, misses, simSum, simCount, gets, builds float64
	start := time.Now()
	for i := 0; len(walls) == 0 || (tr != nil && len(tracedWalls) == 0) || time.Since(start) < c.window; i++ {
		traced := tr != nil && i%2 == 1
		cal.sampleEach(pn)
		log, d, err := setupPass()
		if err != nil {
			return err
		}
		var ptr *tracer
		if traced {
			ptr = tr
		}
		round := len(walls)
		if traced {
			round = len(tracedWalls)
		}
		collect()
		am := startAlloc()
		t0 := time.Now()
		outs := drive(ctx, d, log, ptr, pn, round)
		wall := time.Since(t0).Seconds()
		alloc := am.mb()
		sc, err := d.scrape(ctx)
		d.close()
		if err != nil {
			return err
		}
		for k, o := range outs {
			r.check(o.err == nil && o.outOK && o.snap == ref[k].snap,
				"serve pass %d request %d (%s): err=%v output_ok=%t, snapshot differs from warm-up: %t", i, k, log[k].class, o.err, o.outOK, o.snap != ref[k].snap)
		}
		if traced {
			tracedWalls = append(tracedWalls, wall)
			continue
		}
		walls = append(walls, wall)
		allocs = append(allocs, alloc)
		simSum, simCount, gets, builds = simSum+sc.simSum, simCount+sc.simCount, gets+sc.gets, builds+sc.builds
		for k, o := range outs {
			perReq[k] = append(perReq[k], millis(o.latency))
			if log[k].class != classHit {
				missSum += millis(o.latency)
				misses++
			}
		}
	}

	best := bests(perReq)
	byClass := map[string][]float64{}
	for k, ms := range best {
		byClass[log[k].class] = append(byClass[log[k].class], ms)
	}
	addEndToEnd(r, setups, best, allocs, cal)
	r.add("passes", float64(len(walls)), "count")
	r.add("serve.pass_wall_s", median(walls), "s")
	r.add("serve_rps", float64(len(log))/(sum(best)/1e3*cal.speed()), "1/s")
	r.add("serve.requests", float64(len(log)), "count")
	r.add("serve.requests_beyond_p99", float64(len(log))*0.01, "count")
	for _, cl := range classes {
		r.add("serve."+cl+"_p50_ms", quantile(byClass[cl], 0.5), "ms")
	}
	simMean := 1e3 * simSum / simCount
	r.add("serve.sim_mean_ms", simMean, "ms")
	r.add("serve.overhead_mean_ms", missSum/misses-simMean, "ms")
	r.add("serve.cache_hit_frac", 1-builds/gets, "frac")
	if tr != nil {
		if lt := selfTimes(tr.snapshot())["serve.encode"]; lt != nil {
			r.add("serve.encode_us", float64(lt.self.Microseconds())/float64(lt.calls), "us")
		}
		r.add("trace.overhead_frac", quantile(tracedWalls, 0)/quantile(walls, 0)-1, "frac")
	}
	return nil
}

// replayCold replays every 50th distinct request cold through
// corpus.Run and compares the snapshot with the served one and, for
// seed 1, with the golden digest.
func replayCold(c config, r *result, log []logEntry, served []outcome) {
	golden := c.golden.serve()
	for _, i := range replaySubset(log) {
		snap, err := corpus.Run(recordFor(log[i].req))
		r.checkErr(err, fmt.Sprintf("serve replay of request %d", i))
		if err != nil {
			continue
		}
		digest := corpus.SnapshotDigest(snap)
		key := strconv.Itoa(i)
		c.record.setServe(key, digest)
		r.check(served[i].err == nil && snap == served[i].snap, "serve request %d: cold replay differs from the served snapshot", i)
		if golden != nil {
			r.check(golden[key] == digest, "serve request %d: replay digest %s, golden %s", i, digest, golden[key])
		}
	}
}
