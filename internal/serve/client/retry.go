package client

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"asbr/internal/serve"
)

// RetryPolicy bounds the client's automatic retries of transient
// failures: backpressure (429), not-ready/draining (503), canceled
// simulations (408), and transport errors such as connection refused
// or a mid-response reset. Deterministic failures — bad requests,
// guest faults, cycle-limit exhaustion — are never retried: rerunning
// a deterministic simulator yields the same error, so retrying would
// only burn the budget hiding a real result.
//
// Delays follow capped exponential backoff with full-half jitter: step
// k waits uniformly in [d/2, d] where d = min(Base<<k, Max). When the
// daemon sends a Retry-After header its value is a floor on the next
// delay, so a fleet of clients never hammers a saturated queue faster
// than it asked to be retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	// Zero or one disables retrying.
	MaxAttempts int
	// Base is the uncapped first backoff step (default 100ms).
	Base time.Duration
	// Max caps a single backoff step (default 5s).
	Max time.Duration
}

// DefaultRetry is a modest budget suitable for coordinators talking to
// a worker fleet: 5 tries spanning roughly 100ms..1.6s of backoff.
var DefaultRetry = RetryPolicy{MaxAttempts: 5, Base: 100 * time.Millisecond, Max: 5 * time.Second}

// Option configures a Client at construction.
type Option func(*Client)

// WithRetry enables automatic retrying of transient failures under p.
// Retried POSTs are safe: the daemon coalesces requests by canonical
// key, so a duplicate of an in-flight or completed job attaches to the
// existing result instead of re-simulating.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// Transient reports whether err is worth retrying: a transport-level
// failure (connection refused, reset, truncated response), a daemon
// rejection that promises the same request may later succeed (429
// backpressure, 503 draining/not-ready, 408 canceled), or a failed
// job (*JobError) whose error is a non-deterministic simulation error
// (canceled: a timeout on an overloaded worker), backpressure or
// draining. Context cancellation, deterministic API errors and
// deterministic simulation errors, which would reproduce on any
// worker, are not transient.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var je *JobError
	if errors.As(err, &je) {
		if se, ok := je.SimError(); ok {
			return !se.Code.Deterministic()
		}
		return je.Code == serve.CodeBackpressure || je.Code == serve.CodeDraining
	}
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusRequestTimeout:
			return true
		}
		return false
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// attempts returns the effective try budget (at least one).
func (c *Client) attempts() int {
	if c.retry.MaxAttempts < 1 {
		return 1
	}
	return c.retry.MaxAttempts
}

// backoff computes the jittered delay before retry number attempt
// (0-based: the wait after the first failure is backoff(0)).
func (c *Client) backoff(attempt int) time.Duration {
	base := c.retry.Base
	if base <= 0 {
		base = DefaultRetry.Base
	}
	max := c.retry.Max
	if max <= 0 {
		max = DefaultRetry.Max
	}
	d := base << attempt
	if d <= 0 || d > max { // <<= overflow guards too
		d = max
	}
	half := d / 2
	return half + time.Duration(c.rnd()*float64(d-half))
}

// retryAfterOf extracts the daemon's Retry-After hint from err, or 0.
func retryAfterOf(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// parseRetryAfter reads an integral-seconds Retry-After header value
// (the only form asbr-serve emits); anything else is 0.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx waits for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// defaultRnd is the jitter source for clients built by New.
func defaultRnd() float64 { return rand.Float64() } //nolint:gosec // jitter, not crypto
