package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"asbr/internal/experiment"
	"asbr/internal/obs"
	"asbr/internal/serve"
	"asbr/internal/serve/client"
	"asbr/internal/workload"
)

// Config shapes a Coordinator.
type Config struct {
	// Workers are the asbr-serve daemon addresses forming the fleet.
	// At least one is required.
	Workers []string
	// VNodes is the consistent-hash fan-out per worker (0 = 64).
	VNodes int
	// Parallel caps concurrently in-flight cells (0 = 2 per worker).
	Parallel int
	// Poll is the job status poll interval (0 = 100ms).
	Poll time.Duration
	// Retry is the per-dispatch transient-failure budget each worker
	// gets before the coordinator gives up on it (zero value =
	// client.DefaultRetry).
	Retry client.RetryPolicy
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)

	// newClient is a test seam for substituting worker clients.
	newClient func(addr string) *client.Client
}

// Cell states in a Report.
const (
	CellOK       = "ok"        // rows merged (may still carry annotated cell errors)
	CellSimError = "sim-error" // deterministic simulation failure; never retried
	CellFailed   = "failed"    // transient-failure budget exhausted on every live worker
)

// Cell is one dispatched unit of a distributed sweep and its
// provenance: which worker produced it, how many dispatch attempts
// (across rebalances) it took, and how it ended.
type Cell struct {
	Table    string `json:"table"`
	Bench    string `json:"bench,omitempty"` // per-bench tables only
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts"`
	State    string `json:"state"` // ok | sim-error | failed
	Error    string `json:"error,omitempty"`
}

// WorkerHealth is one fleet member's status in a Report.
type WorkerHealth struct {
	Addr     string `json:"addr"`
	WorkerID string `json:"worker_id,omitempty"`
	Alive    bool   `json:"alive"`
	Status   string `json:"status,omitempty"` // last readyz status, or probe error class
}

// Report is a distributed sweep's full outcome: the merged tables —
// byte-identical to a single-process run when every cell lands — plus
// per-cell provenance and fleet health. Partial is true when any cell
// ultimately failed; its rows are absent from Tables and the Cell
// entry says why, so a degraded run is never mistaken for a complete
// one.
type Report struct {
	Tables  *experiment.TablesJSON `json:"tables"`
	Cells   []Cell                 `json:"cells"`
	Workers []WorkerHealth         `json:"workers"`
	Partial bool                   `json:"partial"`

	// Totals is the fleet's accumulated service-lifetime snapshot
	// (each reachable worker's /v1/stats totals folded together with
	// the cycle-weighted obs.Snapshot.Accumulate, in sorted worker
	// order). Unreachable workers contribute nothing.
	Totals obs.Snapshot `json:"totals"`
}

// Coordinator fans sweeps out across the worker fleet.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	flight *flight

	mu      sync.Mutex
	clients map[string]*client.Client
	status  map[string]string // last observed readyz/probe status per worker
}

// New builds a coordinator over cfg.Workers. The ring starts with
// every worker alive; health is learned from probes and dispatch
// failures.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 100 * time.Millisecond
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 2 * len(cfg.Workers)
	}
	if cfg.Retry == (client.RetryPolicy{}) {
		cfg.Retry = client.DefaultRetry
	}
	if cfg.newClient == nil {
		retry := cfg.Retry
		cfg.newClient = func(addr string) *client.Client {
			return client.New(addr, client.WithRetry(retry))
		}
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(cfg.VNodes),
		flight:  newFlight(),
		clients: make(map[string]*client.Client),
		status:  make(map[string]string),
	}
	for _, w := range cfg.Workers {
		c.ring.Add(w)
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// client returns (building once) the worker's API client.
func (c *Coordinator) client(addr string) *client.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.clients[addr]; ok {
		return cl
	}
	cl := c.cfg.newClient(addr)
	c.clients[addr] = cl
	return cl
}

func (c *Coordinator) setStatus(addr, status string) {
	c.mu.Lock()
	c.status[addr] = status
	c.mu.Unlock()
}

// Probe checks every worker's /v1/readyz once, reviving reachable
// workers and marking unreachable ones dead. It returns the fleet
// sorted by address. A not-ready worker (draining, saturated) stays
// alive — it answers readiness, so its queue will drain; only a worker
// the coordinator cannot reach at all loses its key ranges.
func (c *Coordinator) Probe(ctx context.Context) []WorkerHealth {
	var wg sync.WaitGroup
	out := make([]WorkerHealth, len(c.cfg.Workers))
	for i, addr := range c.cfg.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := WorkerHealth{Addr: addr}
			rz, err := c.client(addr).Readyz(ctx)
			if err != nil {
				h.Status = "unreachable"
				c.ring.MarkDead(addr)
			} else {
				h.WorkerID = rz.WorkerID
				h.Status = rz.Status
				h.Alive = true
				c.ring.Revive(addr)
			}
			c.setStatus(addr, h.Status)
			out[i] = h
		}()
	}
	wg.Wait()
	for i := range out {
		out[i].Alive = c.ring.Alive(out[i].Addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// FleetStats folds every reachable worker's service-lifetime totals
// into one obs.Snapshot with the cycle-weighted Accumulate, in sorted
// worker order so the fold is deterministic. Unreachable workers are
// skipped — partial fleet visibility degrades the aggregate, it does
// not fail it.
func (c *Coordinator) FleetStats(ctx context.Context) obs.Snapshot {
	addrs := append([]string(nil), c.cfg.Workers...)
	sort.Strings(addrs)
	stats := make([]*serve.ServiceStats, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.client(addr).Stats(ctx)
			if err != nil {
				return
			}
			stats[i] = st
		}()
	}
	wg.Wait()
	var total obs.Snapshot
	for _, st := range stats {
		if st != nil {
			total.Accumulate(st.Totals)
		}
	}
	return total
}

// fleet snapshots current ring liveness for a Report.
func (c *Coordinator) fleet() []WorkerHealth {
	nodes := c.ring.Nodes()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerHealth, 0, len(nodes))
	for addr, alive := range nodes {
		out = append(out, WorkerHealth{Addr: addr, Alive: alive, Status: c.status[addr]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// cell is one dispatchable unit: a whole table, or one (table, bench)
// slice of a per-bench table.
type cell struct {
	table string
	bench string
	req   serve.SweepRequest
	key   string
}

type cellResult struct {
	res  *experiment.TablesJSON
	prov Cell
}

// perBench lists the tables whose rows are keyed by benchmark — the
// experiment engine accepts a bench filter for exactly these, and a
// filtered run's rows are identical to the same benchmark's rows
// inside a full run, which is what makes the distributed merge
// byte-identical.
var perBench = map[string]bool{
	experiment.TableFig6:           true,
	experiment.TableFig11:          true,
	experiment.TablePower:          true,
	experiment.TableFaults:         true,
	experiment.TablePredictability: true,
}

// cells decomposes a normalized request into dispatch units in
// canonical merge order: tables in experiment.TableNames order,
// benches in workload.Names order within each per-bench table.
func cells(req serve.SweepRequest, tables, benches []string) []cell {
	var out []cell
	for _, t := range tables {
		if perBench[t] {
			for _, b := range benches {
				r := req
				r.Tables = []string{t}
				r.Benches = []string{b}
				out = append(out, cell{table: t, bench: b, req: r, key: r.Key()})
			}
			continue
		}
		r := req
		r.Tables = []string{t}
		r.Benches = nil
		out = append(out, cell{table: t, req: r, key: r.Key()})
	}
	return out
}

// Sweep runs the request across the fleet and merges the results. The
// returned error is non-nil only for request-level problems (bad table
// or bench names, context cancellation before any dispatch); a
// degraded fleet produces a Report with Partial set instead, so the
// caller always sees which cells are real.
func (c *Coordinator) Sweep(ctx context.Context, req serve.SweepRequest) (*Report, error) {
	tables, err := experiment.NormalizeTableNames(req.Tables)
	if err != nil {
		return nil, err
	}
	benches, err := experiment.NormalizeBenchNames(req.Benches)
	if err != nil {
		return nil, err
	}
	if benches == nil {
		benches = workload.Names()
	}
	work := cells(req, tables, benches)
	c.logf("sweep: %d cells across %d workers", len(work), len(c.cfg.Workers))

	results := make([]cellResult, len(work))
	sem := make(chan struct{}, c.cfg.Parallel)
	var wg sync.WaitGroup
	for i, cl := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = c.flight.do(cl.key, func() cellResult { return c.runCell(ctx, cl) })
			p := results[i].prov
			c.logf("cell %s done: table=%s bench=%s worker=%s attempts=%d state=%s",
				cl.key, p.Table, orAll(p.Bench), p.Worker, p.Attempts, p.State)
		}()
	}
	wg.Wait()
	rep := c.merge(req, work, results)
	rep.Totals = c.FleetStats(ctx)
	return rep, nil
}

func orAll(b string) string {
	if b == "" {
		return "-"
	}
	return b
}

// runCell dispatches one cell to its ring owner, rebalancing to the
// next live owner whenever a worker exhausts its transient-retry
// budget. Deterministic failures return immediately as sim-error
// provenance: retrying a deterministic simulator reproduces the fault.
func (c *Coordinator) runCell(ctx context.Context, cl cell) cellResult {
	prov := Cell{Table: cl.table, Bench: cl.bench}
	for {
		owner, ok := c.ring.Owner(cl.key)
		if !ok {
			prov.State = CellFailed
			if prov.Error == "" {
				prov.Error = "no live workers"
			} else {
				prov.Error += "; no live workers remain"
			}
			return cellResult{prov: prov}
		}
		prov.Worker = owner
		prov.Attempts++
		c.logf("dispatch %s/%s -> %s (attempt %d)", cl.table, orAll(cl.bench), owner, prov.Attempts)
		res, err := c.dispatch(ctx, c.client(owner), cl.req)
		if err == nil {
			prov.State = CellOK
			return cellResult{res: res, prov: prov}
		}
		if !client.Transient(err) {
			prov.State = CellSimError
			prov.Error = err.Error()
			return cellResult{prov: prov}
		}
		if ctx.Err() != nil {
			prov.State = CellFailed
			prov.Error = err.Error()
			return cellResult{prov: prov}
		}
		// The worker burned its whole per-dispatch retry budget on
		// transient failures: treat it as dead, hand its key ranges to
		// the ring's next live owner, and go again.
		prov.Error = err.Error()
		c.ring.MarkDead(owner)
		c.setStatus(owner, "unreachable")
		c.logf("worker %s marked dead after cell %s/%s (%v); rebalancing",
			owner, cl.table, orAll(cl.bench), err)
	}
}

// dispatch runs one cell on one worker via the async jobs API. The
// client's own retry budget absorbs transient hiccups in each HTTP
// exchange; a job that reaches a terminal failed state comes back as a
// *client.JobError that client.Transient classifies.
func (c *Coordinator) dispatch(ctx context.Context, cl *client.Client, req serve.SweepRequest) (*experiment.TablesJSON, error) {
	st, err := cl.Run(ctx, serve.JobRequest{Sweep: &req}, c.cfg.Poll)
	if err != nil {
		return nil, err
	}
	if st.Sweep == nil {
		return nil, fmt.Errorf("job %s finished without sweep tables", st.ID)
	}
	return st.Sweep, nil
}

// merge reassembles per-cell tables into one TablesJSON in canonical
// order — tables in experiment.TableNames order, per-bench rows in
// workload.Names order — which is exactly the order a single-process
// sweep emits, so a fully successful distributed run is
// byte-identical to a local one.
func (c *Coordinator) merge(req serve.SweepRequest, work []cell, results []cellResult) *Report {
	rep := &Report{Workers: c.fleet()}
	merged := &experiment.TablesJSON{Samples: req.Samples, Seed: req.Seed, Update: req.Update}
	sawMeta := false
	for i, cl := range work {
		r := results[i]
		rep.Cells = append(rep.Cells, r.prov)
		if r.prov.State != CellOK {
			rep.Partial = true
			continue
		}
		if !sawMeta {
			// Workers normalize defaults (samples, update point) the
			// coordinator does not know; adopt the first real cell's.
			merged.Samples, merged.Seed, merged.Update = r.res.Samples, r.res.Seed, r.res.Update
			sawMeta = true
		}
		merged.Errors = append(merged.Errors, r.res.Errors...)
		switch cl.table {
		case experiment.TableFig6:
			merged.Fig6 = append(merged.Fig6, r.res.Fig6...)
		case experiment.TableFig11:
			merged.Fig11 = append(merged.Fig11, r.res.Fig11...)
		case experiment.TablePower:
			merged.Power = append(merged.Power, r.res.Power...)
		case experiment.TableFaults:
			merged.Faults = append(merged.Faults, r.res.Faults...)
		case experiment.TablePredictability:
			merged.Predictability = append(merged.Predictability, r.res.Predictability...)
		case experiment.TableFig7:
			merged.Fig7 = r.res.Fig7
		case experiment.TableFig9:
			merged.Fig9 = r.res.Fig9
		case experiment.TableFig10:
			merged.Fig10 = r.res.Fig10
		case experiment.TableMotivation:
			merged.Motivation = r.res.Motivation
		case experiment.TableAblations:
			merged.Ablations = r.res.Ablations
		}
	}
	rep.Tables = merged
	return rep
}
