package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"asbr/internal/serve"
)

// recordedSleeps swaps the client's backoff sleep for an instant one
// that logs each requested delay, so retry tests run in microseconds
// and can assert on the schedule itself.
func recordedSleeps(c *Client) *[]time.Duration {
	var log []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		log = append(log, d)
		return ctx.Err()
	}
	return &log
}

// flakyHandler fails n requests with status (and optional Retry-After)
// before answering 200 {"ok":true}.
func flakyHandler(n *atomic.Int64, status int, retryAfter string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n.Add(-1) >= 0 {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":{"code":"backpressure","message":"job queue full"}}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1}`)
	}
}

func TestRetryRecoversFrom429(t *testing.T) {
	var fails atomic.Int64
	fails.Store(2)
	ts := httptest.NewServer(flakyHandler(&fails, http.StatusTooManyRequests, ""))
	defer ts.Close()

	c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 4, Base: time.Millisecond, Max: 10 * time.Millisecond}))
	sleeps := recordedSleeps(c)
	hz, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatalf("Healthz after transient 429s: %v", err)
	}
	if hz.Status != "ok" {
		t.Errorf("status = %q, want ok", hz.Status)
	}
	if len(*sleeps) != 2 {
		t.Errorf("backoff sleeps = %d, want 2 (one per failed attempt)", len(*sleeps))
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	var fails atomic.Int64
	fails.Store(1 << 30) // never recovers
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		flakyHandler(&fails, http.StatusTooManyRequests, "").ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond}))
	recordedSleeps(c)
	_, err := c.Healthz(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want APIError 429", err)
	}
	if got := served.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want exactly MaxAttempts=3", got)
	}
}

func TestNoRetryWithoutPolicy(t *testing.T) {
	var served atomic.Int64
	var fails atomic.Int64
	fails.Store(1 << 30)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		flakyHandler(&fails, http.StatusTooManyRequests, "").ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := New(ts.URL)
	recordedSleeps(c)
	if _, err := c.Healthz(context.Background()); !IsCode(err, "backpressure") {
		t.Fatalf("err = %v, want backpressure APIError", err)
	}
	if got := served.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (retry is opt-in)", got)
	}
}

func TestDeterministicErrorsNeverRetried(t *testing.T) {
	// 422 is a real simulation outcome (guest fault, cycle-limit):
	// retrying a deterministic simulator reruns the same failure, so
	// the client must surface it on the first attempt.
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprintf(w, `{"error":{"code":"divide-by-zero","message":"boom","pc":1024,"cycle":99}}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(DefaultRetry))
	recordedSleeps(c)
	_, err := c.Sim(context.Background(), serve.SimRequest{Source: "exit 0"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if ae.Code != "divide-by-zero" || ae.PC != 1024 || ae.Cycle != 99 {
		t.Errorf("error body = %+v, want sim error fields preserved", ae.ErrorBody)
	}
	if Transient(err) {
		t.Error("Transient(422 sim error) = true, want false")
	}
	if got := served.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1", got)
	}
}

func TestRetryHonorsRetryAfterFloor(t *testing.T) {
	var fails atomic.Int64
	fails.Store(1)
	ts := httptest.NewServer(flakyHandler(&fails, http.StatusServiceUnavailable, "2"))
	defer ts.Close()

	c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 2, Base: time.Millisecond, Max: 4 * time.Millisecond}))
	sleeps := recordedSleeps(c)
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] < 2*time.Second {
		t.Errorf("sleeps = %v, want one delay floored at the Retry-After of 2s", *sleeps)
	}
}

func TestRetryConnectionRefused(t *testing.T) {
	// Bind a port, then close it: dialing gets connection refused, a
	// transient transport error that consumes the whole budget.
	ts := httptest.NewServer(http.NotFoundHandler())
	addr := ts.URL
	ts.Close()

	c := New(addr, WithRetry(RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond}))
	sleeps := recordedSleeps(c)
	_, err := c.Healthz(context.Background())
	if err == nil {
		t.Fatal("Healthz against closed port succeeded")
	}
	if !Transient(err) {
		t.Errorf("Transient(%v) = false, want true for connection refused", err)
	}
	if len(*sleeps) != 2 {
		t.Errorf("backoff sleeps = %d, want 2 for MaxAttempts=3", len(*sleeps))
	}
}

func TestRetryAbortsOnContextCancel(t *testing.T) {
	var fails atomic.Int64
	fails.Store(1 << 30)
	ts := httptest.NewServer(flakyHandler(&fails, http.StatusTooManyRequests, ""))
	defer ts.Close()

	c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 10, Base: time.Hour, Max: time.Hour}))
	c.sleep = sleepCtx // real sleep: only cancellation can end the wait
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := c.Healthz(ctx)
	if err == nil {
		t.Fatal("Healthz succeeded, want abort")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Errorf("err = %v, want the last 429 wrapped", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancel took %v, backoff ignored ctx", elapsed)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	c := New("127.0.0.1:1", WithRetry(RetryPolicy{MaxAttempts: 8, Base: 100 * time.Millisecond, Max: time.Second}))
	for attempt := 0; attempt < 8; attempt++ {
		full := min(100*time.Millisecond<<attempt, time.Second)
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt)
			if d < full/2 || d > full {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", attempt, d, full/2, full)
			}
		}
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"429 backpressure", &APIError{Status: 429}, true},
		{"503 draining", &APIError{Status: 503}, true},
		{"408 canceled sim", &APIError{Status: 408}, true},
		{"400 bad request", &APIError{Status: 400}, false},
		{"404 not found", &APIError{Status: 404}, false},
		{"422 sim error", &APIError{Status: 422}, false},
		{"500 internal", &APIError{Status: 500}, false},
		{"context canceled", context.Canceled, false},
		{"deadline exceeded", context.DeadlineExceeded, false},
		{"plain error", errors.New("x"), false},
		{"failed job: canceled sim", &JobError{serve.ErrorBody{Code: "canceled"}}, true},
		{"failed job: backpressure", &JobError{serve.ErrorBody{Code: serve.CodeBackpressure}}, true},
		{"failed job: draining", &JobError{serve.ErrorBody{Code: serve.CodeDraining}}, true},
		{"failed job: sim error", &JobError{serve.ErrorBody{Code: "divide-by-zero"}}, false},
		{"failed job: cycle limit", &JobError{serve.ErrorBody{Code: "cycle-limit"}}, false},
		{"failed job: internal", &JobError{serve.ErrorBody{Code: serve.CodeInternal}}, false},
		{"wrapped failed job", fmt.Errorf("cell: %w", &JobError{serve.ErrorBody{Code: "canceled"}}), true},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestReadyzDecodesNotReady(t *testing.T) {
	ready := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if !ready.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"ready":false,"status":"saturated","worker_id":"w1","queue_depth":8,"queue_capacity":8}`)
			return
		}
		fmt.Fprintf(w, `{"ready":true,"status":"ok","worker_id":"w1","queue_depth":0,"queue_capacity":8}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	rz, err := c.Readyz(context.Background())
	if err != nil {
		t.Fatalf("Readyz (not ready): %v", err)
	}
	if rz.Ready || rz.Status != "saturated" || rz.WorkerID != "w1" {
		t.Errorf("not-ready payload = %+v", rz)
	}
	ready.Store(true)
	rz, err = c.Readyz(context.Background())
	if err != nil {
		t.Fatalf("Readyz (ready): %v", err)
	}
	if !rz.Ready || rz.Status != "ok" {
		t.Errorf("ready payload = %+v", rz)
	}
}
