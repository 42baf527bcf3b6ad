package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asbr/internal/experiment"
	"asbr/internal/serve"
	"asbr/internal/serve/client"
	"asbr/internal/workload"
)

// fastRetry keeps unit-test backoffs in the microsecond range.
var fastRetry = client.RetryPolicy{MaxAttempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond}

// fakeWorker is a scriptable stand-in for an asbr-serve daemon: it
// speaks just enough of the jobs API for the coordinator's dispatch
// path, with a switchable failure mode.
type fakeWorker struct {
	ts      *httptest.Server
	submits atomic.Int64
	mode    atomic.Value // "ok" | "backpressure" | "sim-error"
	stats   atomic.Value // JSON body for GET /v1/stats ("" = 404)
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	w := &fakeWorker{}
	w.mode.Store("ok")
	w.stats.Store("")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(rw http.ResponseWriter, r *http.Request) {
		body := w.stats.Load().(string)
		if body == "" {
			rw.WriteHeader(http.StatusNotFound)
			fmt.Fprint(rw, `{"error":{"code":"not-found","message":"no stats"}}`)
			return
		}
		fmt.Fprint(rw, body)
	})
	mux.HandleFunc("GET /v1/readyz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprint(rw, `{"ready":true,"status":"ok","queue_depth":0,"queue_capacity":8}`)
	})
	mux.HandleFunc("POST /v1/jobs", func(rw http.ResponseWriter, r *http.Request) {
		w.submits.Add(1)
		if w.mode.Load() == "backpressure" {
			rw.Header().Set("Retry-After", "0")
			rw.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(rw, `{"error":{"code":"backpressure","message":"job queue full"}}`)
			return
		}
		rw.WriteHeader(http.StatusAccepted)
		fmt.Fprint(rw, `{"id":"j1","kind":"sweep","state":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(rw http.ResponseWriter, r *http.Request) {
		if w.mode.Load() == "sim-error" {
			fmt.Fprint(rw, `{"id":"j1","kind":"sweep","state":"failed","error":{"code":"divide-by-zero","message":"REM by zero","pc":64,"cycle":9}}`)
			return
		}
		fmt.Fprint(rw, `{"id":"j1","kind":"sweep","state":"done","sweep":{"samples":64,"seed":1,"update":"mem"}}`)
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

// newFakeCluster builds a coordinator over named fake workers. Names
// (not the fakes' random ports) go on the ring, so key ownership is
// deterministic across runs.
func newFakeCluster(t *testing.T, fakes map[string]*fakeWorker) *Coordinator {
	t.Helper()
	var names []string
	for n := range fakes {
		names = append(names, n)
	}
	c, err := New(Config{
		Workers: names,
		Retry:   fastRetry,
		Poll:    time.Millisecond,
		Logf:    t.Logf,
		newClient: func(addr string) *client.Client {
			return client.New(fakes[addr].ts.URL, client.WithRetry(fastRetry))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoordinatorRebalancesAwayFromDeadWorker(t *testing.T) {
	fakes := map[string]*fakeWorker{"wA": newFakeWorker(t), "wB": newFakeWorker(t)}
	fakes["wA"].mode.Store("backpressure") // wA never accepts work
	c := newFakeCluster(t, fakes)

	rep, err := c.Sweep(context.Background(), serve.SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatalf("Partial = true with a healthy second worker: %+v", rep.Cells)
	}
	owned := 0
	for _, cell := range rep.Cells {
		if cell.State != CellOK {
			t.Errorf("cell %s/%s state = %s (%s)", cell.Table, cell.Bench, cell.State, cell.Error)
		}
		if cell.Worker != "wB" {
			t.Errorf("cell %s/%s produced by %q, want wB (wA rejects everything)", cell.Table, cell.Bench, cell.Worker)
		}
		if cell.Attempts > 1 {
			owned++ // first-owned by wA, rebalanced after its budget drained
		}
	}
	if owned == 0 {
		t.Fatal("no cell was first-owned by wA; rebalance path not exercised")
	}
	for _, w := range rep.Workers {
		if w.Addr == "wA" && w.Alive {
			t.Error("wA still alive after exhausting its retry budget")
		}
		if w.Addr == "wB" && !w.Alive {
			t.Error("wB marked dead despite serving every cell")
		}
	}
	// wA saw exactly its per-dispatch budget per first-owned cell, then
	// was never consulted again once dead.
	if got := fakes["wA"].submits.Load(); got == 0 || got > int64(owned*fastRetry.MaxAttempts) {
		t.Errorf("wA submits = %d, want in (0, %d]", got, owned*fastRetry.MaxAttempts)
	}
}

func TestCoordinatorNeverRetriesDeterministicSimError(t *testing.T) {
	fakes := map[string]*fakeWorker{"wA": newFakeWorker(t), "wB": newFakeWorker(t)}
	fakes["wA"].mode.Store("sim-error")
	fakes["wB"].mode.Store("sim-error")
	c := newFakeCluster(t, fakes)

	rep, err := c.Sweep(context.Background(), serve.SweepRequest{Tables: []string{"motivation"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Error("Partial = false for a sweep whose only cell failed")
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d, want 1 (motivation is a whole-table cell)", len(rep.Cells))
	}
	cell := rep.Cells[0]
	if cell.State != CellSimError || cell.Attempts != 1 {
		t.Errorf("cell = %+v, want sim-error after exactly 1 attempt", cell)
	}
	if !strings.Contains(cell.Error, "divide-by-zero") {
		t.Errorf("cell error %q does not carry the sim error code", cell.Error)
	}
	if got := fakes["wA"].submits.Load() + fakes["wB"].submits.Load(); got != 1 {
		t.Errorf("fleet saw %d submits, want 1: deterministic failures reproduce anywhere", got)
	}
	// A deterministic failure says nothing about worker health.
	for _, w := range rep.Workers {
		if !w.Alive {
			t.Errorf("worker %s marked dead by a deterministic sim error", w.Addr)
		}
	}
}

func TestCoordinatorGracefulDegradationAndRecovery(t *testing.T) {
	fakes := map[string]*fakeWorker{"wA": newFakeWorker(t)}
	fakes["wA"].mode.Store("backpressure")
	c := newFakeCluster(t, fakes)

	rep, err := c.Sweep(context.Background(), serve.SweepRequest{Tables: []string{"fig6"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("Partial = false with the whole fleet down")
	}
	if rep.Tables == nil || len(rep.Tables.Fig6) != 0 {
		t.Errorf("degraded tables should be empty, got %+v", rep.Tables)
	}
	for _, cell := range rep.Cells {
		if cell.State != CellFailed {
			t.Errorf("cell %s/%s state = %s, want failed", cell.Table, cell.Bench, cell.State)
		}
		if cell.Error == "" {
			t.Errorf("failed cell %s/%s carries no error provenance", cell.Table, cell.Bench)
		}
	}

	// The worker recovers; a probe revives it and — because transient
	// cell failures are evicted from the single-flight table — the next
	// sweep re-dispatches instead of replaying the failure.
	fakes["wA"].mode.Store("ok")
	health := c.Probe(context.Background())
	if len(health) != 1 || !health[0].Alive {
		t.Fatalf("probe after recovery = %+v, want alive", health)
	}
	rep, err = c.Sweep(context.Background(), serve.SweepRequest{Tables: []string{"fig6"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Errorf("Partial = true after recovery: %+v", rep.Cells)
	}
}

func TestCoordinatorCoalescesDuplicateCells(t *testing.T) {
	fakes := map[string]*fakeWorker{"wA": newFakeWorker(t)}
	c := newFakeCluster(t, fakes)

	if _, err := c.Sweep(context.Background(), serve.SweepRequest{Tables: []string{"fig6"}}); err != nil {
		t.Fatal(err)
	}
	first := fakes["wA"].submits.Load()
	if first != 4 {
		t.Fatalf("first sweep submits = %d, want 4 (one per benchmark)", first)
	}
	// The same sweep again: every cell key is already resolved in the
	// coordinator's single-flight table, so nothing reaches the fleet.
	if _, err := c.Sweep(context.Background(), serve.SweepRequest{Tables: []string{"fig6"}}); err != nil {
		t.Fatal(err)
	}
	if got := fakes["wA"].submits.Load(); got != first {
		t.Errorf("second sweep reached the fleet: submits %d -> %d", first, got)
	}
}

func TestCoordinatorFleetStatsAccumulates(t *testing.T) {
	fakes := map[string]*fakeWorker{"wA": newFakeWorker(t), "wB": newFakeWorker(t), "wC": newFakeWorker(t)}
	// wA and wB report real totals; wC answers 404 (e.g. an older build)
	// and must simply drop out of the fold.
	fakes["wA"].stats.Store(`{"totals":{"cycles":100,"instructions":50,"cpi":2,"icache_miss_rate":0.25,"dcache_miss_rate":0.5},"sim_runs":1}`)
	fakes["wB"].stats.Store(`{"totals":{"cycles":300,"instructions":150,"cpi":2,"icache_miss_rate":0.75,"dcache_miss_rate":0.5},"sim_runs":3}`)
	c := newFakeCluster(t, fakes)

	got := c.FleetStats(context.Background())
	if got.Cycles != 400 || got.Instructions != 200 {
		t.Errorf("fleet totals = %d cycles / %d instructions, want 400/200", got.Cycles, got.Instructions)
	}
	// Cycle-weighted fold: (0.25*100 + 0.75*300) / 400 = 0.625.
	if got.ICacheMissRate != 0.625 {
		t.Errorf("fleet icache miss rate = %v, want 0.625", got.ICacheMissRate)
	}
	if got.DCacheMissRate != 0.5 {
		t.Errorf("fleet dcache miss rate = %v, want 0.5", got.DCacheMissRate)
	}
	// The aggregate also rides on every sweep report.
	rep, err := c.Sweep(context.Background(), serve.SweepRequest{Tables: []string{"motivation"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Cycles != 400 {
		t.Errorf("report totals cycles = %d, want 400", rep.Totals.Cycles)
	}
}

// startServeWorker runs a real in-process asbr-serve daemon.
func startServeWorker(t *testing.T, id string) string {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 32, WorkerID: id, DefaultSamples: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestClusterSweepMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	req := serve.SweepRequest{Tables: []string{"fig6", "fig9"}, Samples: 64}

	// Ground truth: the same request on one daemon.
	single := startServeWorker(t, "solo")
	want, err := client.New(single).Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	fleet := []string{startServeWorker(t, "w0"), startServeWorker(t, "w1"), startServeWorker(t, "w2")}
	c, err := New(Config{Workers: fleet, Poll: 5 * time.Millisecond, Retry: fastRetry, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatalf("Partial = true on a healthy fleet: %+v", rep.Cells)
	}

	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(rep.Tables)
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("distributed sweep diverged from single-process run:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	// The fig6 cells fanned out one per benchmark; the fig9 whole-table
	// cell rode alongside.
	if len(rep.Cells) != len(workload.Names())+1 {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), len(workload.Names())+1)
	}
	// Each cell ran on the worker the coordinator's ring assigns its
	// key. The workers' URLs carry random ports, so how the cells
	// spread differs from run to run (now and then all of them hash to
	// one worker); the placement is read from the ring, not assumed.
	tables, err := experiment.NormalizeTableNames(req.Tables)
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range cells(req, tables, workload.Names()) {
		owner, ok := c.ring.Owner(cl.key)
		if !ok || rep.Cells[i].Worker != owner {
			t.Errorf("cell %s/%s ran on %q, ring owner %q", cl.table, cl.bench, rep.Cells[i].Worker, owner)
		}
	}
}
