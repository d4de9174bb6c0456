// Package admission is the overload-control layer in front of
// telcoserve's request handlers: per-endpoint concurrency limiters
// with bounded wait queues, priority-aware load shedding, a
// sliding-window overload detector that flips the daemon into a
// declared degraded mode, and per-request deadline derivation.
//
// The model mirrors the storage layer's declared-degradation
// philosophy (see internal/trace's scrub/quarantine): the daemon never
// silently queues unbounded work — a request either holds a slot, waits
// in a bounded queue, or is shed with an explicit 429 + Retry-After —
// and sustained shedding trips the detector into a degraded window
// that /healthz and /stats report, during which sheddable classes are
// refused up front (queries fall back to cache-only serving).
//
// Endpoint classes shed in priority order: ingest (never shed by the
// detector — losing acknowledged-stream data is worse than slow
// queries; its own limiter queue and the ingest backlog budget still
// bound it), then query (cache-only while degraded), then artifacts
// (refused while degraded). Every limit, queue depth and window is
// explicit configuration with conservative defaults.
package admission

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Class names one admission-controlled endpoint class.
type Class int

// Classes in shed-priority order: higher values shed later.
const (
	// ClassArtifacts covers / and /artifacts — pre-rendered state,
	// cheap to serve, first to shed.
	ClassArtifacts Class = iota
	// ClassQuery covers /query — bounded scans; cache-only while
	// degraded.
	ClassQuery
	// ClassIngest covers /ingest/* — acknowledged-stream writes; never
	// shed by the overload detector, only bounded by its own queue.
	ClassIngest
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassArtifacts:
		return "artifacts"
	case ClassQuery:
		return "query"
	case ClassIngest:
		return "ingest"
	}
	return "class(" + strconv.Itoa(int(c)) + ")"
}

// QueueFullError rejects a request whose class already has every slot
// busy and every queue position taken. It maps to 429 + Retry-After.
type QueueFullError struct {
	Class Class
	// Slots and Queue are the configured bounds that were exhausted.
	Slots, Queue int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("admission: %s queue full (%d slots, %d queued)", e.Class, e.Slots, e.Queue)
}

// OverloadError refuses a sheddable request up front because the
// detector has declared a degraded window. It maps to 429 +
// Retry-After.
type OverloadError struct {
	Class Class
	// Until is when the degraded window currently ends (extended while
	// shedding continues).
	Until time.Time
	// RetryAfter is the wait the server suggests to the client.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("admission: %s shed: server overloaded until %s",
		e.Class, e.Until.UTC().Format(time.RFC3339))
}

// LimiterStats snapshots one class's counters for /stats.
type LimiterStats struct {
	Class    string `json:"class"`
	Slots    int    `json:"slots"`
	Queue    int    `json:"queue"`
	InFlight int64  `json:"in_flight"`
	Waiting  int64  `json:"waiting"`
	Admitted int64  `json:"admitted"`
	// Rejected counts queue-full rejections; Shed counts detector
	// refusals during degraded windows; Canceled counts requests whose
	// context expired while queued.
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	Canceled int64 `json:"canceled"`
}

// Limiter bounds one endpoint class: Slots requests run concurrently,
// up to Queue more wait, the rest are rejected immediately. A waiter
// whose context expires leaves the queue with the context's error.
type Limiter struct {
	class Class
	slots chan struct{}
	queue int64

	waiting  atomic.Int64
	inflight atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	shed     atomic.Int64
	canceled atomic.Int64
}

// NewLimiter builds a limiter with the given bounds (slots < 1 is
// clamped to 1; queue < 0 to 0).
func NewLimiter(class Class, slots, queue int) *Limiter {
	if slots < 1 {
		slots = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Limiter{class: class, slots: make(chan struct{}, slots), queue: int64(queue)}
}

// Acquire takes a slot, waiting in the bounded queue if none is free.
// On success it returns a release function (idempotent, must be
// called); otherwise a *QueueFullError or the context's error.
func (l *Limiter) Acquire(ctx context.Context) (func(), error) {
	select {
	case l.slots <- struct{}{}:
		return l.grant(), nil
	default:
	}
	if l.waiting.Add(1) > l.queue {
		l.waiting.Add(-1)
		l.rejected.Add(1)
		return nil, &QueueFullError{Class: l.class, Slots: cap(l.slots), Queue: int(l.queue)}
	}
	defer l.waiting.Add(-1)
	select {
	case l.slots <- struct{}{}:
		return l.grant(), nil
	case <-ctx.Done():
		l.canceled.Add(1)
		return nil, ctx.Err()
	}
}

// grant books an admitted request and returns its once-only release.
func (l *Limiter) grant() func() {
	l.admitted.Add(1)
	l.inflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			l.inflight.Add(-1)
			<-l.slots
		})
	}
}

// Stats snapshots the limiter's counters.
func (l *Limiter) Stats() LimiterStats {
	return LimiterStats{
		Class:    l.class.String(),
		Slots:    cap(l.slots),
		Queue:    int(l.queue),
		InFlight: l.inflight.Load(),
		Waiting:  l.waiting.Load(),
		Admitted: l.admitted.Load(),
		Rejected: l.rejected.Load(),
		Shed:     l.shed.Load(),
		Canceled: l.canceled.Load(),
	}
}

// detectorBuckets is the sliding window's resolution: rejects are
// counted in window/detectorBuckets-wide buckets, so the window the
// detector evaluates is accurate to one bucket.
const detectorBuckets = 10

// DetectorState reports the overload detector for /healthz and /stats.
type DetectorState struct {
	Degraded bool `json:"degraded"`
	// Since/Until bound the current degraded window (zero when not
	// degraded). Until extends while shedding continues.
	Since time.Time `json:"since,omitempty"`
	Until time.Time `json:"until,omitempty"`
	// Trips counts entries into degraded mode since start.
	Trips int64 `json:"trips"`
	// WindowRejects and WindowAdmits are the sliding-window totals the
	// trip decision is based on.
	WindowRejects int64 `json:"window_rejects"`
	WindowAdmits  int64 `json:"window_admits"`
}

// Detector is the sliding-window overload detector: when the
// queue-full rejections across all classes within the window reach the
// threshold, the daemon declares a degraded window of at least
// cooldown, extended while rejections keep arriving.
type Detector struct {
	mu        sync.Mutex
	bucket    time.Duration
	threshold int64
	cooldown  time.Duration
	rejects   [detectorBuckets]int64
	admits    [detectorBuckets]int64
	head      int64 // absolute bucket index the counters are rotated to
	degraded  bool
	since     time.Time
	until     time.Time
	trips     int64
	now       func() time.Time
}

// NewDetector builds a detector; window and cooldown < 1s are clamped,
// threshold < 1 disables tripping (the window counters still report).
func NewDetector(window, cooldown time.Duration, threshold int, now func() time.Time) *Detector {
	if window < time.Second {
		window = time.Second
	}
	if cooldown < time.Second {
		cooldown = time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Detector{
		bucket:    window / detectorBuckets,
		threshold: int64(threshold),
		cooldown:  cooldown,
		now:       now,
	}
}

// advance rotates the ring to the bucket containing t, zeroing skipped
// buckets. Callers hold mu.
func (d *Detector) advance(t time.Time) {
	idx := t.UnixNano() / int64(d.bucket)
	if d.head == 0 {
		d.head = idx
		return
	}
	for ; d.head < idx; d.head++ {
		slot := int((d.head + 1) % detectorBuckets)
		d.rejects[slot] = 0
		d.admits[slot] = 0
	}
}

// Admit records one admitted request.
func (d *Detector) Admit() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.now())
	d.admits[int(d.head%detectorBuckets)]++
}

// Reject records one queue-full rejection and trips or extends the
// degraded window when the sliding-window total reaches the threshold.
func (d *Detector) Reject() {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.now()
	d.advance(t)
	d.rejects[int(d.head%detectorBuckets)]++
	if d.threshold <= 0 {
		return
	}
	var total int64
	for _, r := range d.rejects {
		total += r
	}
	if total >= d.threshold {
		if !d.degraded || t.After(d.until) {
			d.trips++
			d.since = t
		}
		d.degraded = true
		d.until = t.Add(d.cooldown)
	}
}

// Degraded reports whether a degraded window is currently open.
func (d *Detector) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degradedLocked(d.now())
}

func (d *Detector) degradedLocked(t time.Time) bool {
	if d.degraded && t.After(d.until) {
		d.degraded = false
		d.since, d.until = time.Time{}, time.Time{}
	}
	return d.degraded
}

// State snapshots the detector.
func (d *Detector) State() DetectorState {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.now()
	d.advance(t)
	st := DetectorState{Degraded: d.degradedLocked(t), Trips: d.trips}
	if st.Degraded {
		st.Since, st.Until = d.since, d.until
	}
	for i := 0; i < detectorBuckets; i++ {
		st.WindowRejects += d.rejects[i]
		st.WindowAdmits += d.admits[i]
	}
	return st
}

// Config tunes a Controller. Zero values take the defaults; a
// negative queue depth means "no queue" (reject once the slots fill).
type Config struct {
	// Per-class concurrency slots and queue depths.
	QuerySlots, QueryQueue       int
	IngestSlots, IngestQueue     int
	ArtifactSlots, ArtifactQueue int
	// QueryBudget caps every /query execution deadline; a request's
	// ?timeout= may only shorten it.
	QueryBudget time.Duration
	// OverloadWindow/OverloadThreshold/OverloadCooldown tune the
	// detector: Threshold queue-full rejections inside Window open a
	// degraded window of at least Cooldown.
	OverloadWindow    time.Duration
	OverloadThreshold int
	OverloadCooldown  time.Duration
	// RetryAfter is the wait suggested to shed clients.
	RetryAfter time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Defaults (documented in DESIGN.md §6c).
const (
	DefaultQuerySlots    = 32
	DefaultQueryQueue    = 64
	DefaultIngestSlots   = 64
	DefaultIngestQueue   = 128
	DefaultArtifactSlots = 64
	DefaultArtifactQueue = 64
	DefaultQueryBudget   = 10 * time.Second
	DefaultWindow        = 10 * time.Second
	DefaultThreshold     = 50
	DefaultCooldown      = 15 * time.Second
	DefaultRetryAfter    = 1 * time.Second
	minRetryAfterSeconds = 1
)

func defInt(v, def int) int {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

func defDur(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	return v
}

// Controller bundles the per-class limiters, the shared overload
// detector, and the query deadline budget.
type Controller struct {
	limiters   [numClasses]*Limiter
	det        *Detector
	budget     time.Duration
	retryAfter time.Duration
}

// NewController builds a controller from cfg (zero fields defaulted).
func NewController(cfg Config) *Controller {
	c := &Controller{
		det: NewDetector(
			defDur(cfg.OverloadWindow, DefaultWindow),
			defDur(cfg.OverloadCooldown, DefaultCooldown),
			defInt(cfg.OverloadThreshold, DefaultThreshold),
			cfg.Now,
		),
		budget:     defDur(cfg.QueryBudget, DefaultQueryBudget),
		retryAfter: defDur(cfg.RetryAfter, DefaultRetryAfter),
	}
	c.limiters[ClassQuery] = NewLimiter(ClassQuery,
		defInt(cfg.QuerySlots, DefaultQuerySlots), defInt(cfg.QueryQueue, DefaultQueryQueue))
	c.limiters[ClassIngest] = NewLimiter(ClassIngest,
		defInt(cfg.IngestSlots, DefaultIngestSlots), defInt(cfg.IngestQueue, DefaultIngestQueue))
	c.limiters[ClassArtifacts] = NewLimiter(ClassArtifacts,
		defInt(cfg.ArtifactSlots, DefaultArtifactSlots), defInt(cfg.ArtifactQueue, DefaultArtifactQueue))
	return c
}

// Admit runs the admission decision for one request: shed sheddable
// classes during a degraded window, otherwise acquire the class's
// limiter. The error is *OverloadError, *QueueFullError, or the
// context's error; queue-full rejections feed the detector.
func (c *Controller) Admit(ctx context.Context, class Class) (func(), error) {
	l := c.limiters[class]
	if class != ClassIngest && c.det.Degraded() {
		l.shed.Add(1)
		st := c.det.State()
		return nil, &OverloadError{Class: class, Until: st.Until, RetryAfter: c.retryAfter}
	}
	release, err := l.Acquire(ctx)
	if err != nil {
		var qf *QueueFullError
		if asQueueFull(err, &qf) {
			c.det.Reject()
		}
		return nil, err
	}
	c.det.Admit()
	return release, nil
}

// asQueueFull is errors.As without the reflect import for the one type
// the hot shed path matches.
func asQueueFull(err error, target **QueueFullError) bool {
	qf, ok := err.(*QueueFullError)
	if ok {
		*target = qf
	}
	return ok
}

// Overloaded reports whether a degraded window is open. The /query
// handler uses it to switch to cache-only serving before Admit.
func (c *Controller) Overloaded() bool { return c.det.Degraded() }

// NoteShed books one detector-shed request for class without going
// through Admit (the /query cache-only path sheds after its cache
// peek misses).
func (c *Controller) NoteShed(class Class) { c.limiters[class].shed.Add(1) }

// RetryAfter is the shed-response wait in whole seconds (at least 1),
// shaped for a Retry-After header.
func (c *Controller) RetryAfter() int {
	s := int(c.retryAfter / time.Second)
	if s < minRetryAfterSeconds {
		s = minRetryAfterSeconds
	}
	return s
}

// QueryContext derives the per-request execution context: the
// requested timeout (0 = none) capped by the server budget.
func (c *Controller) QueryContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	d := c.budget
	if timeout > 0 && timeout < d {
		d = timeout
	}
	return context.WithTimeout(ctx, d)
}

// State snapshots the detector for /healthz.
func (c *Controller) State() DetectorState { return c.det.State() }

// Stats snapshots every limiter plus the detector for /stats.
func (c *Controller) Stats() map[string]any {
	classes := make([]LimiterStats, 0, numClasses)
	for class := Class(0); class < numClasses; class++ {
		classes = append(classes, c.limiters[class].Stats())
	}
	return map[string]any{
		"classes":  classes,
		"overload": c.State(),
	}
}

// ParseTimeout parses a /query ?timeout= parameter: a Go duration
// ("750ms", "2s") or a bare integer in milliseconds. Zero/empty means
// "server budget only"; negative values are rejected.
func ParseTimeout(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	if ms, err := strconv.ParseInt(s, 10, 64); err == nil {
		if ms < 0 {
			return 0, fmt.Errorf("admission: negative timeout %q", s)
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("admission: bad timeout %q (want a duration or milliseconds)", s)
	}
	return d, nil
}
