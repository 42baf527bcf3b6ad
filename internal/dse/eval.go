package dse

import (
	"context"
	"errors"
	"fmt"
	"time"

	"asbr/internal/cluster"
	"asbr/internal/corpus"
	"asbr/internal/obs"
	"asbr/internal/runner"
	"asbr/internal/serve"
	"asbr/internal/serve/client"
	"asbr/internal/workload"
)

// Evaluator runs one candidate configuration to completion and returns
// its snapshot. Both implementations end in the same place — the
// corpus.RunBench execution path over an artifact store — so the
// snapshot (and therefore the score) of a config is identical whether
// it was evaluated in-process or by a remote daemon: Local calls
// RunBench directly; Remote's daemon calls it in simulateBench and
// ships back stats that ARE the snapshot (SimStatsV1 = obs.Snapshot).
type Evaluator interface {
	Evaluate(ctx context.Context, c Config) (obs.Snapshot, error)
}

// Budgets fixes the simulation inputs shared by every evaluation of a
// search: the synthetic-trace shape and the per-run watchdog budgets.
// They are part of the result's provenance — two searches with equal
// budgets over equal grammars are comparable.
type Budgets struct {
	Samples   int    `json:"samples"`
	Seed      int64  `json:"seed"`
	MaxCycles uint64 `json:"max_cycles"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"` // remote per-request budget (0 = daemon default)
}

// FillDefaults applies the serve daemon's own defaults, so local and
// remote evaluation normalize identically.
func (b Budgets) FillDefaults() Budgets {
	if b.Samples <= 0 {
		b.Samples = 4096
	}
	if b.Seed == 0 {
		b.Seed = 1
	}
	if b.MaxCycles == 0 {
		b.MaxCycles = 1 << 32
	}
	return b
}

// Local evaluates candidates in-process through corpus.RunBench over
// its own artifact store: programs at each scheduling level and the
// synthetic input trace are built once per search no matter how many
// candidates share them. Safe for concurrent use (the search runs
// evaluation batches through the runner pool).
type Local struct {
	Budgets Budgets
	arts    runner.Artifacts
}

// NewLocal builds a local evaluator.
func NewLocal(b Budgets) *Local { return &Local{Budgets: b.FillDefaults()} }

// Evaluate runs the config's folded ASBR simulation and returns its
// snapshot — the same projection (cpu.Stats.Snapshot) the serve daemon
// puts on the wire.
func (l *Local) Evaluate(ctx context.Context, c Config) (obs.Snapshot, error) {
	build, err := workload.BuildOptionsLevel(c.Bench, c.Sched)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("dse: %v", err)
	}
	br, err := corpus.RunBench(ctx, &l.arts, corpus.BenchRun{
		Bench: c.Bench,
		Build: build,
		// The spec names no engine: cpu.SelectEngine resolves the step
		// loop from the hooks the ASBR flow attaches per run.
		Spec: corpus.MachineSpec{
			Predictor: c.Predictor,
			MaxCycles: l.Budgets.MaxCycles,
			Update:    c.Update,
			ICacheKB:  c.ICacheKB,
			DCacheKB:  c.DCacheKB,
		},
		ASBR:       true,
		BITEntries: c.BITEntries,
		BITBanks:   c.BITBanks,
		Samples:    l.Budgets.Samples,
		Seed:       l.Budgets.Seed,
	})
	if err != nil {
		return obs.Snapshot{}, err
	}
	return br.Res.Stats.Snapshot(), nil
}

// Remote evaluates candidates by dispatching /v1/jobs sim submissions
// to a daemon fleet. Candidates are routed by consistent hashing on
// the request's canonical key — the same ring the cluster coordinator
// uses — so a fleet shares the per-worker coalescing caches stably. A
// worker that exhausts its transient-retry budget is marked dead and
// its keys rebalance to the next live owner; deterministic simulation
// errors return immediately (they would reproduce anywhere).
type Remote struct {
	Budgets Budgets
	Poll    time.Duration // job poll interval (0 = client default)

	ring    *cluster.Ring
	clients map[string]*client.Client
	logf    func(format string, args ...any)
}

// NewRemote builds a remote evaluator over one or more daemon
// addresses. logf may be nil.
func NewRemote(addrs []string, b Budgets, logf func(string, ...any)) (*Remote, error) {
	if len(addrs) == 0 {
		return nil, errors.New("dse: remote evaluator needs at least one worker address")
	}
	r := &Remote{
		Budgets: b.FillDefaults(),
		ring:    cluster.NewRing(0),
		clients: make(map[string]*client.Client, len(addrs)),
		logf:    logf,
	}
	for _, a := range addrs {
		if _, dup := r.clients[a]; dup {
			return nil, fmt.Errorf("dse: duplicate worker address %q", a)
		}
		r.ring.Add(a)
		r.clients[a] = client.New(a, client.WithRetry(client.DefaultRetry))
	}
	return r, nil
}

// Evaluate ships the config to its ring owner and returns the wire
// snapshot unchanged — no re-projection, so remote scores are
// bit-identical to local ones by construction.
func (r *Remote) Evaluate(ctx context.Context, c Config) (obs.Snapshot, error) {
	req := c.Request(r.Budgets.Samples, r.Budgets.Seed, r.Budgets.MaxCycles, r.Budgets.TimeoutMS)
	key := req.Key()
	var lastErr error
	for {
		owner, ok := r.ring.Owner(key)
		if !ok {
			if lastErr != nil {
				return obs.Snapshot{}, fmt.Errorf("dse: no live workers remain (last: %v)", lastErr)
			}
			return obs.Snapshot{}, errors.New("dse: no live workers")
		}
		snap, err := r.dispatch(ctx, r.clients[owner], req)
		if err == nil {
			return snap, nil
		}
		if !client.Transient(err) || ctx.Err() != nil {
			return obs.Snapshot{}, err
		}
		lastErr = err
		r.ring.MarkDead(owner)
		if r.logf != nil {
			r.logf("dse: worker %s marked dead (%v); rebalancing", owner, err)
		}
	}
}

// dispatch runs one candidate on one worker via the async jobs API.
func (r *Remote) dispatch(ctx context.Context, cl *client.Client, req serve.SimRequest) (obs.Snapshot, error) {
	st, err := cl.Run(ctx, serve.JobRequest{Sim: &req}, r.Poll)
	if err != nil {
		return obs.Snapshot{}, err
	}
	if st.Sim == nil {
		return obs.Snapshot{}, fmt.Errorf("dse: job %s finished without a sim result", st.ID)
	}
	return st.Sim.Stats, nil
}
