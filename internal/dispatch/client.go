package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks the campaign-service API (POST/GET /campaigns and friends)
// with the same patience policy as a worker: transient failures (network,
// 5xx) retry with exponential backoff and jitter, a 429 backs off on the
// server's Retry-After schedule (capped at maxRetryAfter so a bad header
// cannot park the client), and a typed 4xx — invalid spec, unknown
// campaign, bad transition — returns a TerminalError immediately, because
// repeating a rejected request only delays the inevitable.
type Client struct {
	// URL is the service base URL, e.g. "http://10.0.0.1:9321".
	URL string
	// HTTPClient is the transport; nil means a default with a 10s timeout.
	HTTPClient *http.Client
	// Backoff shapes retry delays; zero value = defaults.
	Backoff Backoff
	// MaxWait bounds total retrying per call (backpressure included).
	// Default 2 minutes.
	MaxWait time.Duration
}

func (c *Client) client() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// defaultMaxWait is how long a call may keep retrying by default.
const defaultMaxWait = 2 * time.Minute

func (c *Client) maxWait() time.Duration {
	if c.MaxWait > 0 {
		return c.MaxWait
	}
	return defaultMaxWait
}

// SubmitCampaign submits a grid and returns the admitted (or, for a named
// resubmission, the already-live) campaign. Backpressure is invisible to
// the caller beyond latency: 429 replies are absorbed by the retry loop
// until MaxWait runs out.
func (c *Client) SubmitCampaign(ctx context.Context, req *SubmitCampaignRequest) (*CampaignInfo, error) {
	var info CampaignInfo
	if err := c.do(ctx, http.MethodPost, PathCampaigns, req, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Campaigns lists every campaign the service knows, submission-ordered.
func (c *Client) Campaigns(ctx context.Context) ([]CampaignInfo, error) {
	var infos []CampaignInfo
	if err := c.do(ctx, http.MethodGet, PathCampaigns, nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Campaign fetches one campaign's status.
func (c *Client) Campaign(ctx context.Context, id string) (*CampaignInfo, error) {
	var info CampaignInfo
	if err := c.do(ctx, http.MethodGet, PathCampaigns+"/"+id, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Transition posts a pause/resume/cancel action and returns the resulting
// status.
func (c *Client) Transition(ctx context.Context, id, action string) (*CampaignInfo, error) {
	var info CampaignInfo
	if err := c.do(ctx, http.MethodPost, PathCampaigns+"/"+id+"/"+action, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Results downloads a campaign's durable results file — the canonical
// ResultSet bytes, directly diffable against a local run's results.
func (c *Client) Results(ctx context.Context, id string) ([]byte, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, PathCampaigns+"/"+id+"/results", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// do runs one API call under the retry policy described on Client.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		var term *TerminalError
		if errors.As(err, &term) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Since(start) >= c.maxWait() {
			return fmt.Errorf("dispatch: service %s unavailable for %v: %w", c.URL, c.maxWait(), err)
		}
		delay := c.Backoff.Delay(attempt, nil)
		var ra *retryAfterError
		if errors.As(err, &ra) && ra.after > delay {
			delay = min(ra.after, maxRetryAfter)
		}
		if !sleepCtx(ctx, delay) {
			return ctx.Err()
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.URL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return classifyHTTPError(path, resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// retryAfterError is a 429 from the server: not an outage, but an explicit
// "come back later" with the server's suggested pause.
type retryAfterError struct {
	path  string
	after time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("dispatch: %s: HTTP 429, retry after %v", e.path, e.after)
}

// maxRetryAfter caps how long a server-suggested Retry-After is honored —
// a misconfigured or adversarial header must not park the client forever.
const maxRetryAfter = 30 * time.Second

// classifyHTTPError turns a non-200 reply into the right error flavor for
// the retry loop, consuming (a bounded prefix of) the body for the reason.
func classifyHTTPError(path string, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode == http.StatusTooManyRequests {
		after := 2 * time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
		}
		return &retryAfterError{path: path, after: after}
	}
	if resp.StatusCode >= 400 && resp.StatusCode < 500 {
		term := &TerminalError{Path: path, Status: resp.StatusCode,
			Msg: strings.TrimSpace(string(raw))}
		var ae APIError
		if json.Unmarshal(raw, &ae) == nil && ae.Code != "" {
			term.Code, term.Msg = ae.Code, ae.Error
		}
		if term.Msg == "" {
			term.Msg = http.StatusText(resp.StatusCode)
		}
		return term
	}
	return fmt.Errorf("dispatch: %s: HTTP %d", path, resp.StatusCode)
}
