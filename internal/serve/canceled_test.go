package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"asbr/internal/workload"
)

// spinSource never exits: only the request's wall-clock budget stops
// it, long before the default cycle budget.
const spinSource = "main:\tj\tmain\n"

// simVia runs req through /v1/sim or as a /v1/jobs job and returns the
// failure's structured error (a zero body on success).
func simVia(t *testing.T, base, endpoint string, req SimRequest) ErrorBody {
	t.Helper()
	if endpoint == "/v1/sim" {
		status, b := post(t, base+endpoint, req)
		if status == http.StatusOK {
			return ErrorBody{}
		}
		return decodeErr(t, b)
	}
	status, b := post(t, base+endpoint, JobRequest{Sim: &req})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, b)
	}
	var job JobStatus
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	if job = waitJob(t, base, job.ID); job.Error == nil {
		return ErrorBody{}
	}
	return *job.Error
}

// A request cut short by its wall-clock budget is not cached: the same
// request again simulates again. A cycle-limit failure is a function
// of the request, so its repeat is a cache hit.
func TestCanceledRunsAgain(t *testing.T) {
	for _, endpoint := range []string{"/v1/sim", "/v1/jobs"} {
		t.Run(endpoint, func(t *testing.T) {
			srv, ts := testServer(t, Config{})
			timedOut := SimRequest{Bench: workload.G721Encode, Samples: 4096, TimeoutMS: 5}
			for i := 1; i <= 2; i++ {
				if eb := simVia(t, ts.URL, endpoint, timedOut); eb.Code != "canceled" {
					t.Fatalf("run %d: error %+v, want canceled", i, eb)
				}
				if got := srv.serviceStats().SimRuns; got != uint64(i) {
					t.Fatalf("after %d timed-out requests: %d simulations, want %d", i, got, i)
				}
			}

			overBudget := SimRequest{Bench: workload.ADPCMEncode, Samples: 64, MaxCycles: 100}
			for i := 0; i < 2; i++ {
				if eb := simVia(t, ts.URL, endpoint, overBudget); eb.Code != "cycle-limit" {
					t.Fatalf("error %+v, want cycle-limit", eb)
				}
			}
			if got := srv.serviceStats().SimRuns; got != 3 {
				t.Errorf("a repeated cycle-limit request simulated again: %d simulations, want 3", got)
			}
		})
	}
}

// A request that coalesces on a build the wall-clock budget then
// cancels gets that build's failure, and only the next request
// simulates again.
func TestCanceledCoalescedWaiter(t *testing.T) {
	for _, endpoint := range []string{"/v1/sim", "/v1/jobs"} {
		t.Run(endpoint, func(t *testing.T) {
			srv, ts := testServer(t, Config{Workers: 2})
			req := SimRequest{Source: spinSource, TimeoutMS: 400}
			var wg sync.WaitGroup
			errs := make([]ErrorBody, 2)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = simVia(t, ts.URL, endpoint, req)
				}(i)
				// The second request joins the first one's build.
				waitFor(t, func() bool { return srv.sims.Builds() == 1 })
			}
			wg.Wait()
			for i, eb := range errs {
				if eb.Code != "canceled" || eb != errs[0] {
					t.Errorf("request %d: error %+v, want the first request's %+v", i, eb, errs[0])
				}
			}
			if got := srv.serviceStats().SimRuns; got != 1 {
				t.Fatalf("two coalesced requests ran %d simulations, want 1", got)
			}
			if eb := simVia(t, ts.URL, endpoint, req); eb.Code != "canceled" {
				t.Fatalf("third request: error %+v, want canceled", eb)
			}
			if got := srv.serviceStats().SimRuns; got != 2 {
				t.Errorf("the request after a canceled build ran %d simulations in all, want 2", got)
			}
		})
	}
}

// A sweep whose tables hold a canceled cell is not cached either; one
// with cycle-limit cells is.
func TestCanceledSweepRunsAgain(t *testing.T) {
	srv, ts := testServer(t, Config{})
	for _, c := range []struct {
		req  SweepRequest
		code string
		runs uint64
	}{
		{SweepRequest{Tables: []string{"fig6"}, Benches: []string{workload.G721Encode}, Samples: 4096, TimeoutMS: 1}, "canceled", 2},
		{SweepRequest{Tables: []string{"fig6"}, Benches: []string{workload.ADPCMEncode}, Samples: 64, MaxCycles: 100}, "cycle-limit", 1},
	} {
		before := srv.met.sweepRuns.Load()
		for i := 0; i < 2; i++ {
			status, b := post(t, ts.URL+"/v1/sweep", c.req)
			if status != http.StatusOK {
				t.Fatalf("status %d, body %s", status, b)
			}
			var tabs struct {
				Fig6 []struct {
					Error *ErrorBody `json:"error"`
				} `json:"fig6"`
			}
			if err := json.Unmarshal(b, &tabs); err != nil {
				t.Fatal(err)
			}
			if len(tabs.Fig6) == 0 || tabs.Fig6[0].Error == nil || tabs.Fig6[0].Error.Code != c.code {
				t.Fatalf("fig6 = %s, want a %s cell first", b, c.code)
			}
		}
		if got := srv.met.sweepRuns.Load() - before; got != c.runs {
			t.Errorf("%s: two requests ran %d sweeps, want %d", c.code, got, c.runs)
		}
	}
}
