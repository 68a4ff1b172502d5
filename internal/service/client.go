package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"tricomm/internal/obs"
)

// RetryPolicy shapes the client's transient-failure handling: attempts
// are spaced by exponential backoff with jitter, capped at MaxDelay, and
// a server-sent Retry-After extends the wait.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (default 4); 1 disables
	// retries entirely.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms); each retry
	// doubles it up to MaxDelay (default 5s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// backoff is the wait before retry number attempt (1-based): exponential
// doubling capped at MaxDelay, drawn uniformly from [d/2, d] so a herd of
// clients decorrelates.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Client talks to a running tricommd over its JSON/HTTP API. Transient
// failures — connection errors on idempotent requests, 429/503 load
// shedding, 5xx on reads — are retried per Retry before an error is
// surfaced.
type Client struct {
	// Base is the server base URL, e.g. "http://127.0.0.1:7341".
	Base string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// Retry shapes transient-failure retries; the zero value means the
	// defaults (4 attempts, 100ms base, 5s cap).
	Retry RetryPolicy
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// statusError maps an API error response to the typed sentinels (ErrBusy
// for load shedding, ErrNotFound for missing jobs) so callers use
// errors.Is instead of matching message text.
func statusError(resp *http.Response, body []byte) error {
	detail := resp.Status
	var ae apiError
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		detail = fmt.Sprintf("%s: %s", resp.Status, ae.Error)
	}
	switch resp.StatusCode {
	case http.StatusServiceUnavailable:
		return fmt.Errorf("service: %s: %w", detail, ErrBusy)
	case http.StatusNotFound:
		return fmt.Errorf("service: %s: %w", detail, ErrNotFound)
	}
	return fmt.Errorf("service: %s", detail)
}

// retriableStatus reports whether a failed response may be retried for
// the method. Rate limiting and load shedding (429, 503) are retried for
// every method — the server rejected the request without acting on it —
// while other 5xx are retried only on idempotent GETs.
func retriableStatus(method string, code int) bool {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		return true
	}
	return method == http.MethodGet && code >= 500
}

// retryAfter parses a Retry-After header as delay seconds (0 if absent
// or not delta-seconds).
func retryAfter(h string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// do executes one API call with retries and decodes the JSON response (or
// API error) into out. The request is rebuilt per attempt so POST bodies
// replay; transport-level failures retry only on GET (a lost POST may
// have been applied), HTTP-level failures per retriableStatus, and a
// server-sent Retry-After extends the backoff.
func (c *Client) do(ctx context.Context, method, url string, payload []byte, out any) error {
	pol := c.Retry.withDefaults()
	var lastErr error
	for attempt := 1; ; attempt++ {
		var br io.Reader
		if payload != nil {
			br = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, br)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		wait := time.Duration(0)
		resp, err := c.http().Do(req)
		if err != nil {
			if ctx.Err() != nil || method != http.MethodGet {
				return err
			}
			lastErr = err
		} else {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
			resp.Body.Close()
			switch {
			case rerr != nil:
				if method != http.MethodGet {
					return rerr
				}
				lastErr = rerr
			case resp.StatusCode < 300:
				if out == nil {
					return nil
				}
				return json.Unmarshal(body, out)
			default:
				lastErr = statusError(resp, body)
				if !retriableStatus(method, resp.StatusCode) {
					return lastErr
				}
				wait = retryAfter(resp.Header.Get("Retry-After"))
			}
		}
		if attempt >= pol.MaxAttempts {
			return lastErr
		}
		if d := pol.backoff(attempt); d > wait {
			wait = d
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return lastErr
		}
	}
}

// Submit enqueues a job. Submission is retried only on 429/503 — replies
// the server sends without acting on the request — so a retry can never
// double-submit.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobInfo, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return JobInfo{}, err
	}
	var ji JobInfo
	err = c.do(ctx, http.MethodPost, c.url("/v1/jobs"), payload, &ji)
	return ji, err
}

// Job fetches one job with its per-trial results.
func (c *Client) Job(ctx context.Context, id string) (JobInfo, error) {
	var ji JobInfo
	err := c.do(ctx, http.MethodGet, c.url("/v1/jobs/"+id), nil, &ji)
	return ji, err
}

// JobPage fetches one job with a window of its per-trial results:
// limit < 0 means everything from offset on (limit 0 fetches just the
// envelope, the cheap way to poll state on a huge job). The reply's
// ResultsOffset/ResultsTotal locate the window within the available
// result prefix.
func (c *Client) JobPage(ctx context.Context, id string, offset, limit int) (JobInfo, error) {
	u := c.url("/v1/jobs/" + id)
	q := url.Values{}
	if offset > 0 {
		q.Set("offset", strconv.Itoa(offset))
	}
	if limit >= 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var ji JobInfo
	err := c.do(ctx, http.MethodGet, u, nil, &ji)
	return ji, err
}

// ServerStats fetches the service counters.
func (c *Client) ServerStats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, c.url("/v1/stats"), nil, &st)
	return st, err
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, c.url("/healthz"), nil, nil)
}

// Metrics scrapes and parses the server's /metrics exposition. The
// returned form indexes every series by its full identity (see
// obs.Exposition); parse failures surface as errors, so this doubles as
// an end-to-end format check.
func (c *Client) Metrics(ctx context.Context) (*obs.Exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, statusError(resp, body)
	}
	e, err := obs.CheckExposition(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("service: invalid /metrics exposition: %w", err)
	}
	return e, nil
}

// Stream follows a job's NDJSON stream, invoking fn for every trial
// outcome, and returns the final JobInfo once the job finishes.
func (c *Client) Stream(ctx context.Context, id string, fn func(TrialOutcome) error) (JobInfo, error) {
	return c.StreamFrom(ctx, id, 0, fn)
}

// StreamFrom follows a job's NDJSON stream starting at trial offset,
// which is how a consumer resumes after a dropped connection without
// re-reading (or double-counting) outcomes it already has. The stream
// request itself is not retried — a caller that wants resilience loops
// StreamFrom, advancing offset by the outcomes delivered (see
// `tricli watch`).
func (c *Client) StreamFrom(ctx context.Context, id string, offset int, fn func(TrialOutcome) error) (JobInfo, error) {
	u := c.url("/v1/jobs/" + id + "/stream")
	if offset > 0 {
		u += "?offset=" + strconv.Itoa(offset)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return JobInfo{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return JobInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return JobInfo{}, statusError(resp, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	var final JobInfo
	gotFinal := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// The final line is the JobInfo envelope; trial lines have no "id".
		var probe struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.ID != "" {
			if err := json.Unmarshal(line, &final); err != nil {
				return JobInfo{}, err
			}
			gotFinal = true
			continue
		}
		var out TrialOutcome
		if err := json.Unmarshal(line, &out); err != nil {
			return JobInfo{}, fmt.Errorf("service: bad stream line: %w", err)
		}
		if fn != nil {
			if err := fn(out); err != nil {
				return JobInfo{}, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return JobInfo{}, err
	}
	if !gotFinal {
		return JobInfo{}, fmt.Errorf("service: stream for %s ended without a final state", id)
	}
	return final, nil
}

// Wait polls until the job finishes and returns its final info.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobInfo, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		ji, err := c.Job(ctx, id)
		if err != nil {
			return JobInfo{}, err
		}
		if ji.State.Finished() {
			return ji, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return JobInfo{}, ctx.Err()
		}
	}
}
