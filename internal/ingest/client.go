package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// Client posts record batches to an ingest endpoint with the retry
// discipline the durability contract expects: every batch carries a
// monotonically increasing sequence number per stream, a failed or
// unacknowledged send is retried with the same sequence number (the
// server deduplicates), and backpressure responses are honored by
// waiting out Retry-After. A Client is not safe for concurrent use; run
// one per stream.
type Client struct {
	// Base is the endpoint root, e.g. "http://127.0.0.1:8080".
	Base string
	// Stream identifies this client's sequence space (e.g. a UE shard or
	// worker index of the generator).
	Stream uint32
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// RetryFor bounds how long one send keeps retrying before giving up
	// (0 = 30s).
	RetryFor time.Duration
	// MaxAttempts caps the total attempts per logical send, including
	// the first (0 = unlimited within RetryFor).
	MaxAttempts int
	// MaxBackoff caps every retry wait, including server-supplied
	// Retry-After delays (0 = 5s). A server cannot stall a client past
	// its own patience.
	MaxBackoff time.Duration
	// FailThreshold opens the circuit breaker after this many
	// consecutive transport failures (0 = 5). Any HTTP response — even
	// a 5xx — closes it again: the wire works, only the server is
	// unhappy.
	FailThreshold int
	// BreakerCooldown is how long an open breaker short-circuits sends
	// before letting one half-open probe through (0 = 2s).
	BreakerCooldown time.Duration
	// Sleep overrides the retry wait (tests); nil = time.Sleep.
	Sleep func(time.Duration)

	seq uint64
	buf []byte

	// Circuit-breaker state. The Client is single-goroutine by
	// contract, so plain fields suffice.
	consecFails int
	openUntil   time.Time
	m           ClientMetrics
}

// ClientMetrics counts what a Client did on the wire, for operator
// output and test assertions.
type ClientMetrics struct {
	// Sends is the number of logical sends started (Send/Init/DayDone/
	// Flush calls that hit the network).
	Sends int64 `json:"sends"`
	// Retries counts attempts beyond the first across all sends.
	Retries int64 `json:"retries"`
	// TransportFailures counts attempts that died below HTTP (dial,
	// reset, torn response).
	TransportFailures int64 `json:"transport_failures"`
	// BreakerOpens counts breaker trips.
	BreakerOpens int64 `json:"breaker_opens"`
	// ShortCircuits counts attempts delayed or refused by an open
	// breaker.
	ShortCircuits int64 `json:"short_circuits"`
	// RetryAfterHonored counts server-mandated waits obeyed (after
	// capping at MaxBackoff).
	RetryAfterHonored int64 `json:"retry_after_honored"`
}

// Metrics snapshots the client's wire counters.
func (c *Client) Metrics() ClientMetrics { return c.m }

// BreakerOpenError is returned when the circuit breaker is open and
// the send's retry budget would expire before the next half-open
// probe.
type BreakerOpenError struct {
	// Until is when the breaker next admits a probe.
	Until time.Time
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("ingest client: circuit breaker open until %s", e.Until.Format(time.RFC3339))
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// sleep waits d or until ctx is canceled, whichever comes first — a
// canceled context must abort a backoff wait immediately, not after it
// elapses. The Sleep override (tests) wins over the real timer.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		c.Sleep(d)
		return ctx.Err()
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

func (c *Client) retryFor() time.Duration {
	if c.RetryFor > 0 {
		return c.RetryFor
	}
	return 30 * time.Second
}

func (c *Client) maxBackoff() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return backoffCap
}

func (c *Client) failThreshold() int {
	if c.FailThreshold > 0 {
		return c.FailThreshold
	}
	return 5
}

func (c *Client) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return 2 * time.Second
}

// Full-jitter backoff bounds: the retry wait for attempt n (0-based)
// is uniform in (0, min(backoffCap, backoffBase<<n)] — decorrelated
// clients spread their retries instead of stampeding in lockstep. An
// explicit Retry-After from the server overrides the jitter: that is
// the backpressure contract, not a guess.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

func jitterWait(attempt int) time.Duration {
	cap := backoffCap
	if shifted := backoffBase << uint(min(attempt, 10)); shifted < cap {
		cap = shifted
	}
	return time.Duration(rand.Int63n(int64(cap))) + 1
}

// post sends body once and classifies the outcome: ok, retryable (with
// a server-mandated wait, 0 = client-paced), or terminal (wait < 0).
func (c *Client) post(ctx context.Context, path, contentType string, body []byte) (respBody []byte, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// Network errors are retryable: the request may or may not have
		// landed, which is exactly what the seq dedup is for. They also
		// feed the circuit breaker — enough of them in a row and the
		// wire, not the request, is the problem.
		c.noteTransportFailure()
		return nil, 0, err
	}
	// Any HTTP response closes the breaker: the transport works.
	c.consecFails = 0
	defer resp.Body.Close()
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if rerr != nil {
		// The response died mid-body — a transport failure, not a
		// server verdict.
		c.noteTransportFailure()
		return nil, 0, rerr
	}
	switch {
	case resp.StatusCode < 300:
		return data, 0, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode >= 500:
		wait := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		return nil, wait, fmt.Errorf("ingest client: %s: %s (%s)", path, resp.Status, bytes.TrimSpace(data))
	default:
		return nil, -1, fmt.Errorf("ingest client: %s: %s (%s)", path, resp.Status, bytes.TrimSpace(data))
	}
}

// noteTransportFailure feeds the breaker: FailThreshold consecutive
// transport failures open it for BreakerCooldown. The counter is not
// reset on open, so a failed half-open probe re-opens immediately.
func (c *Client) noteTransportFailure() {
	c.m.TransportFailures++
	c.consecFails++
	if c.consecFails >= c.failThreshold() {
		c.openUntil = time.Now().Add(c.breakerCooldown())
		c.m.BreakerOpens++
	}
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds or an HTTP-date. Unparseable or non-positive values
// mean "no server-mandated wait".
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// postRetry keeps resending until success, a terminal response, context
// cancellation, or the retry budget (RetryFor wall clock and
// MaxAttempts count) runs out. Client-paced waits use full-jitter
// exponential backoff; a server Retry-After is honored up to
// MaxBackoff. An open circuit breaker delays the next attempt until
// its half-open probe window, or fails the send outright if the budget
// cannot reach it.
func (c *Client) postRetry(ctx context.Context, path, contentType string, body []byte) ([]byte, error) {
	deadline := time.Now().Add(c.retryFor())
	c.m.Sends++
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.m.Retries++
		}
		if hold := time.Until(c.openUntil); hold > 0 {
			c.m.ShortCircuits++
			if time.Now().Add(hold).After(deadline) {
				return nil, &BreakerOpenError{Until: c.openUntil}
			}
			if serr := c.sleep(ctx, hold); serr != nil {
				return nil, fmt.Errorf("ingest client: %s: %w (breaker open)", path, serr)
			}
		}
		data, wait, err := c.post(ctx, path, contentType, body)
		if err == nil {
			return data, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("ingest client: %s: %w (last error: %v)", path, cerr, err)
		}
		if wait < 0 || time.Now().After(deadline) {
			return nil, err
		}
		if c.MaxAttempts > 0 && attempt+1 >= c.MaxAttempts {
			return nil, fmt.Errorf("ingest client: %s: attempt budget (%d) exhausted: %w", path, c.MaxAttempts, err)
		}
		if wait > 0 {
			c.m.RetryAfterHonored++
		} else {
			wait = jitterWait(attempt)
		}
		if mb := c.maxBackoff(); wait > mb {
			wait = mb
		}
		if serr := c.sleep(ctx, wait); serr != nil {
			return nil, fmt.Errorf("ingest client: %s: %w (last error: %v)", path, serr, err)
		}
	}
}

// Send posts one batch of records, blocking through backpressure and
// transient failures, and returns the server's acknowledgment. The
// sequence number advances only after the send is resolved, so retries
// stay idempotent. A batch of more than trace.MaxBlockRecords records is
// an error, and nothing is posted.
func (c *Client) Send(ctx context.Context, cb *trace.ColumnBatch) (AppendResult, error) {
	var res AppendResult
	if cb.Len() == 0 {
		return res, nil
	}
	var err error
	if c.buf, err = appendBatch(c.buf[:0], c.Stream, c.seq+1, cb); err != nil {
		return res, fmt.Errorf("ingest client: %w", err)
	}
	c.seq++
	data, err := c.postRetry(ctx, "/ingest", ContentTypeBinary, c.buf)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("ingest client: decoding ack: %w", err)
	}
	return res, nil
}

// Init establishes the campaign descriptor on the server (idempotent).
func (c *Client) Init(ctx context.Context, meta *simulate.CampaignMeta) error {
	body, err := meta.Encode()
	if err != nil {
		return err
	}
	_, err = c.postRetry(ctx, "/ingest/init", "application/json", body)
	return err
}

// DayDone marks a study day complete, shipping its generation
// ground-truth aggregate.
func (c *Client) DayDone(ctx context.Context, day int, agg simulate.DayAggregate) error {
	body, err := json.Marshal(jsonDayDone{Day: day, Agg: agg})
	if err != nil {
		return err
	}
	_, err = c.postRetry(ctx, "/ingest/day", "application/json", body)
	return err
}

// Flush asks the server to seal completed head days (force drains every
// pending day) and returns the days sealed.
func (c *Client) Flush(ctx context.Context, force bool) ([]int, error) {
	path := "/ingest/flush"
	if force {
		path += "?force=1"
	}
	data, err := c.postRetry(ctx, path, "application/json", nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Sealed []int `json:"sealed"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out.Sealed, nil
}

// Stats fetches the server's ingest statistics.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	resp, err := c.httpClient().Get(c.Base + "/ingest/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("ingest client: stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}
