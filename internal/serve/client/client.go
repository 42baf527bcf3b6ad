// Package client is the thin Go client for the asbr-serve daemon.
// The CLIs' -remote flags and the serve smoke tests all go through it,
// so the wire types stay pinned to package serve and the error
// envelope decodes into one structured type (*APIError).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"asbr/internal/experiment"
	"asbr/internal/serve"
)

// Client talks to one asbr-serve daemon.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy

	// rnd and sleep are swapped by tests for deterministic backoff.
	rnd   func() float64
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a client for addr, which may be "host:port" or a full
// "http://..." base URL. The underlying http.Client has no global
// timeout: per-call deadlines come from the caller's context (long
// sweeps are legitimate). By default transient failures are not
// retried; pass WithRetry to enable the backoff loop.
func New(addr string, opts ...Option) *Client {
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{base: base, http: &http.Client{}, rnd: defaultRnd, sleep: sleepCtx}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a structured error response from the daemon: the HTTP
// status plus the decoded error body. For simulation failures Code is
// the *cpu.SimError code string (e.g. "cycle-limit"). RetryAfter is
// the daemon's Retry-After hint when it sent one (429/503), zero
// otherwise.
type APIError struct {
	Status     int
	RetryAfter time.Duration
	serve.ErrorBody

	raw []byte // undecoded response body, for non-envelope 503 payloads
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("asbr-serve: %s (http %d): %s", e.Code, e.Status, e.Message)
}

// IsCode reports whether err is an *APIError carrying the given code.
func IsCode(err error, code string) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == code
}

// Sim runs one synchronous simulation.
func (c *Client) Sim(ctx context.Context, req serve.SimRequest) (*serve.SimResponse, error) {
	var resp serve.SimResponse
	if err := c.post(ctx, "/v1/sim", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Sweep runs experiment tables synchronously and returns their
// machine-readable encoding — the same TablesJSON asbr-tables -json
// prints locally.
func (c *Client) Sweep(ctx context.Context, req serve.SweepRequest) (*experiment.TablesJSON, error) {
	var resp experiment.TablesJSON
	if err := c.post(ctx, "/v1/sweep", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Submit enqueues an async job and returns its initial status.
func (c *Client) Submit(ctx context.Context, req serve.JobRequest) (*serve.JobStatus, error) {
	var resp serve.JobStatus
	if err := c.post(ctx, "/v1/jobs", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (*serve.JobStatus, error) {
	var resp serve.JobStatus
	if err := c.get(ctx, "/v1/jobs/"+id, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Wait polls a job until it reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*serve.JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.State == serve.JobDone || job.State == serve.JobFailed {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-t.C:
		}
	}
}

// JobError is an async job that reached the failed state: the
// structured error body the daemon recorded for it.
type JobError struct {
	serve.ErrorBody
}

// Error implements the error interface.
func (e *JobError) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Run submits an async job and polls it to a terminal state. A job
// that failed returns a *JobError carrying the daemon's error body;
// Transient says whether another worker may yet run it.
func (c *Client) Run(ctx context.Context, req serve.JobRequest, poll time.Duration) (*serve.JobStatus, error) {
	job, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	st, err := c.Wait(ctx, job.ID, poll)
	if err != nil {
		return nil, err
	}
	if st.State == serve.JobFailed {
		if st.Error == nil {
			return nil, fmt.Errorf("job %s failed without an error body", job.ID)
		}
		return nil, &JobError{ErrorBody: *st.Error}
	}
	return st, nil
}

// JobTrace fetches a finished traced job's recorded pipeline event
// stream (the job must have been submitted with Trace set).
func (c *Client) JobTrace(ctx context.Context, id string) (*serve.Trace, error) {
	var resp serve.Trace
	if err := c.get(ctx, "/v1/jobs/"+id+"/trace", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the daemon's service-lifetime simulation totals.
func (c *Client) Stats(ctx context.Context) (*serve.ServiceStats, error) {
	var resp serve.ServiceStats
	if err := c.get(ctx, "/v1/stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz checks liveness.
func (c *Client) Healthz(ctx context.Context) (*serve.Healthz, error) {
	var resp serve.Healthz
	if err := c.get(ctx, "/v1/healthz", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Readyz probes readiness without retrying: a 503 means the daemon is
// draining or saturated, and the decoded payload says which. Both the
// ready and not-ready payloads decode; only transport failures and
// non-readyz errors return err != nil.
func (c *Client) Readyz(ctx context.Context) (*serve.Readyz, error) {
	var resp serve.Readyz
	err := c.once(ctx, http.MethodGet, "/v1/readyz", nil, &resp)
	if err == nil {
		return &resp, nil
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable {
		// Not-ready is an answer, not a failure — but the body is the
		// Readyz payload, not the error envelope, so re-fetch it from
		// the raw bytes the error path preserved.
		if json.Unmarshal(ae.raw, &resp) == nil && resp.Status != "" {
			return &resp, nil
		}
	}
	return nil, err
}

// Metrics scrapes the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	res, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return "", err
	}
	if res.StatusCode != http.StatusOK {
		return "", fmt.Errorf("asbr-serve: GET /metrics: http %d", res.StatusCode)
	}
	return string(b), nil
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, body, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// do executes the request under the client's retry budget: transient
// failures (see Transient) back off exponentially with jitter —
// flooring each wait at the daemon's Retry-After hint — until the
// budget runs out; every other error returns immediately. Retrying
// POST is safe because the daemon coalesces by canonical request key.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		if attempt+1 >= c.attempts() || !Transient(err) {
			return err
		}
		delay := c.backoff(attempt)
		if ra := retryAfterOf(err); ra > delay {
			delay = ra
		}
		if serr := c.sleep(ctx, delay); serr != nil {
			// The caller canceled mid-backoff; the last real failure is
			// the useful diagnosis, the cancellation just ends retrying.
			return fmt.Errorf("%w (retry %d/%d aborted: %v)", err, attempt+1, c.attempts(), serr)
		}
	}
}

// once executes one request attempt and decodes either the result or
// the structured error envelope.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode >= 400 {
		ae := &APIError{
			Status:     res.StatusCode,
			RetryAfter: parseRetryAfter(res.Header.Get("Retry-After")),
			raw:        b,
		}
		var env struct {
			Error serve.ErrorBody `json:"error"`
		}
		if json.Unmarshal(b, &env) == nil && env.Error.Code != "" {
			ae.ErrorBody = env.Error
		} else {
			ae.ErrorBody = serve.ErrorBody{
				Code: "http-error", Message: strings.TrimSpace(string(b)),
			}
		}
		return ae
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}
