// Command telcoserve is a long-running HTTP daemon that serves the
// paper's analysis artifacts from a campaign directory — the repo's
// first serving workload. It keeps the full scan state warm in memory,
// watches the trace store's MANIFEST, and when new days land (telcogen
// -append) refreshes incrementally: the current state is checkpointed,
// resumed against the reloaded campaign, and only the new partitions are
// scanned before the rendered artifacts are atomically swapped. Clients
// never see a cold cache and never trigger a rescan.
//
// Usage:
//
//	telcoserve -data ./campaign -addr :8480
//	telcoserve -data ./campaign -poll 1s -parallel 4
//
// Endpoints:
//
//	GET /                  index of artifact ids
//	GET /artifacts         JSON list of artifacts (id, title, paper ref)
//	GET /artifacts/{id}    rendered text (Accept/?format=json for JSON)
//	GET /query             ad-hoc record slices: ?ue=&tac=&sector=&from=&to=
//	                       &limit=&agg=&format=json|csv (see query.go)
//	GET /stats             scan metrics, per-query prune counters,
//	                       snapshot age, refresh history
//	GET /healthz           liveness probe (JSON: status, generation, ingest depth)
//
// With -ingest the daemon also mounts the streaming ingest endpoints
// (POST /ingest, /ingest/day, /ingest/init, /ingest/flush — see the
// internal/ingest package) on the same address: records stream in over
// HTTP, accumulate in a WAL-backed memtable, and seal into ordinary
// partitions, which the refresh loop merges incrementally. A local seal
// nudges the refresh loop directly instead of waiting for the next
// manifest poll (the poll stays as a fallback and covers external
// writers like telcogen -append). The data directory may start empty:
// the daemon serves 503s until a campaign descriptor arrives via
// POST /ingest/init and then bootstraps the serving state.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"telcolens"
	"telcolens/internal/admission"
	"telcolens/internal/ingest"
	"telcolens/internal/query"
	"telcolens/internal/trace"
)

func main() {
	var (
		data      = flag.String("data", "campaign", "campaign directory (from telcogen)")
		addr      = flag.String("addr", ":8480", "HTTP listen address")
		poll      = flag.Duration("poll", 2*time.Second, "store manifest poll interval")
		parallel  = flag.Int("parallel", 0, "scan parallelism (0 = GOMAXPROCS)")
		ingestOn  = flag.Bool("ingest", false, "mount the streaming ingest endpoints (/ingest/*) on this address")
		walSync   = flag.Bool("wal-sync", false, "fsync the ingest WAL on every batch (machine-crash durability)")
		ingestMax = flag.Int64("ingest-pending", 0, "ingest backlog budget in records before 429s (0 = default)")
		scrub     = flag.Bool("scrub", false, "audit the store at startup and quarantine corrupt partitions before serving")
		ckptPath  = flag.String("checkpoint", "", "analyzer checkpoint file: resumed at startup, saved after every refresh (empty = cold scans only)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain budget for in-flight requests")

		queryInflight = flag.Int("query-inflight", 0, "concurrent /query executions admitted (0 = default)")
		queryQueue    = flag.Int("query-queue", 0, "bounded /query wait queue beyond the inflight slots (0 = default, negative = none)")
		queryTimeout  = flag.Duration("query-timeout", 0, "server-side /query execution budget; a request ?timeout= may only shorten it (0 = default)")
		ingInflight   = flag.Int("ingest-inflight", 0, "concurrent /ingest requests admitted (0 = default)")
		ingQueue      = flag.Int("ingest-queue", 0, "bounded /ingest wait queue (0 = default, negative = none)")
		artInflight   = flag.Int("artifact-inflight", 0, "concurrent artifact/index requests admitted (0 = default)")
		artQueue      = flag.Int("artifact-queue", 0, "bounded artifact wait queue (0 = default, negative = none)")
		ovWindow      = flag.Duration("overload-window", 0, "sliding window the overload detector counts rejections over (0 = default)")
		ovThreshold   = flag.Int("overload-threshold", 0, "queue-full rejections inside the window that declare overload (0 = default, negative = never)")
		ovCooldown    = flag.Duration("overload-cooldown", 0, "minimum degraded window once overload is declared (0 = default)")
		retryAfter    = flag.Duration("retry-after", 0, "wait suggested to shed clients via Retry-After (0 = default)")
	)
	flag.Parse()

	cfg := serveConfig{
		dir:        *data,
		addr:       *addr,
		poll:       *poll,
		parallel:   *parallel,
		ingestOn:   *ingestOn,
		walSync:    *walSync,
		ingestMax:  *ingestMax,
		scrub:      *scrub,
		checkpoint: *ckptPath,
		drain:      *drain,
		admission: admission.Config{
			QuerySlots: *queryInflight, QueryQueue: *queryQueue, QueryBudget: *queryTimeout,
			IngestSlots: *ingInflight, IngestQueue: *ingQueue,
			ArtifactSlots: *artInflight, ArtifactQueue: *artQueue,
			OverloadWindow: *ovWindow, OverloadThreshold: *ovThreshold,
			OverloadCooldown: *ovCooldown, RetryAfter: *retryAfter,
		},
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "telcoserve:", err)
		os.Exit(1)
	}
}

// serveConfig carries the daemon's flag set.
type serveConfig struct {
	dir        string
	addr       string
	poll       time.Duration
	parallel   int
	ingestOn   bool
	walSync    bool
	ingestMax  int64
	scrub      bool
	checkpoint string
	drain      time.Duration
	// admission tunes the per-endpoint concurrency limiters and the
	// overload detector (zero fields use the package defaults).
	admission admission.Config
}

// HTTP hardening bounds: header/body read and response write deadlines
// per request, plus body-size caps on the two endpoints that accept or
// stream significant payloads. Scan-heavy artifact renders happen at
// refresh time, never inside a request, so tight deadlines are safe.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpReadTimeout       = time.Minute
	httpWriteTimeout      = 5 * time.Minute
	httpIdleTimeout       = 2 * time.Minute
	// maxIngestBody caps one POST /ingest batch (matches the WAL's own
	// frame sanity bound).
	maxIngestBody = 64 << 20
	// maxQueryBody: /query is GET-shaped; any body is a client bug.
	maxQueryBody = 1 << 20
)

// artifactView is one rendered experiment held in memory.
type artifactView struct {
	ID       string
	Title    string
	PaperRef string
	Text     []byte
	Artifact *telcolens.Artifact // nil when the experiment errored
	Err      string
}

// snapshot is one immutable serving generation: the warm analyzer plus
// every rendered artifact. Refreshes build a new snapshot and swap it.
type snapshot struct {
	analyzer    *telcolens.Analyzer
	views       map[string]*artifactView
	order       []string
	days        int
	partitions  int
	manifestGen uint64
	renderedAt  time.Time
	// qview pins the partition set /query executions run against, so a
	// query sees exactly this snapshot's generation even while new days
	// are landing (nil only if the view could not be built).
	qview *query.View
}

// server owns the current snapshot and the refresh bookkeeping.
type server struct {
	dir      string
	parallel int
	// checkpoint is the analyzer checkpoint file (empty = disabled):
	// resumed at startup, re-saved after every successful refresh so a
	// restart warms up without a full rescan.
	checkpoint string
	// ing is the co-hosted ingest service (nil without -ingest); nudge
	// wakes the watch loop the moment a local seal lands.
	ing   *ingest.Service
	nudge chan struct{}
	// eng executes /query requests; its result cache is invalidated on
	// every snapshot swap.
	eng *query.Engine
	// adm is the admission controller: per-endpoint concurrency
	// limiters, the overload detector, and the /query deadline budget.
	// Nil (tests) means no admission control.
	adm *admission.Controller

	mu sync.RWMutex
	// cur is nil while the campaign is pending: the data directory has no
	// descriptor yet (ingest mode before /ingest/init).
	cur *snapshot
	// lastGen is the trace-manifest generation the serving state is
	// synced to; the poll loop refreshes whenever the store moves past
	// it. It only advances on success, so a failed warm-up or refresh is
	// retried on the next poll. It is always a generation read before
	// the campaign was loaded (loadCampaign), never after: what was
	// loaded covers at least that generation, so a day sealed while a
	// refresh is running leaves the store ahead of lastGen and is
	// picked up by the next one.
	lastGen uint64
	// afterLoad, when set (tests), runs right after a refresh has loaded
	// the campaign — the window in which a concurrent seal used to be
	// marked served without having been loaded.
	afterLoad func()

	started        time.Time
	refreshes      int64
	fullRescans    int64
	refreshErrors  int64
	lastScanned    int
	lastRefreshDur time.Duration

	// Query serving counters (see noteQuery): totals plus the last
	// uncached query's per-request scan metrics for /stats.
	queries        int64
	queryCacheHits int64
	qBlocksPruned  int64
	qBlocksDecoded int64
	qBytesRead     int64
	lastQueryMet   query.Metrics
	lastQueryDur   time.Duration
}

func (s *server) options() []telcolens.Option {
	if s.parallel > 0 {
		return []telcolens.Option{telcolens.WithParallelism(s.parallel)}
	}
	return nil
}

// render runs every experiment against the warm analyzer. Individual
// experiment failures (e.g. a window too short for home detection) are
// served as error artifacts instead of taking the daemon down; a failed
// warm scan is reported so the caller does not mark the state synced
// (the poll loop then retries instead of serving errors forever).
func render(ctx context.Context, a *telcolens.Analyzer) (views map[string]*artifactView, order []string, warmOK bool) {
	// One fused pass computes every scan-state unit the experiments share
	// (resumed analyzers already hold them and skip straight through);
	// the per-experiment runs below then only read cached state.
	warmOK = true
	if _, err := a.Scan(ctx); err != nil {
		warmOK = false
		log.Printf("warming scan state: %v (experiments will retry individually)", err)
	}
	views = make(map[string]*artifactView)
	for _, e := range telcolens.Experiments() {
		v := &artifactView{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef}
		art, err := e.Run(ctx, a)
		if err != nil {
			v.Err = err.Error()
			v.Text = []byte(fmt.Sprintf("%s — error: %v\n", e.ID, err))
		} else {
			var buf bytes.Buffer
			if err := art.Render(&buf); err != nil {
				v.Err = err.Error()
			}
			v.Text = buf.Bytes()
			v.Artifact = art
		}
		views[e.ID] = v
		order = append(order, e.ID)
	}
	return views, order, warmOK
}

// build turns a warm analyzer into a serving snapshot; warmOK reports
// whether the shared scan state was computed (callers only mark the
// state synced to the store generation when it was).
func build(ctx context.Context, a *telcolens.Analyzer, ds *telcolens.Dataset, gen uint64) (*snapshot, bool) {
	views, order, warmOK := render(ctx, a)
	parts, _ := a.Covered()
	qv, err := query.NewView(ds.Store)
	if err != nil {
		log.Printf("building query view: %v (/query disabled for this snapshot)", err)
		qv = nil
	}
	return &snapshot{
		analyzer:    a,
		views:       views,
		order:       order,
		days:        ds.Config.Days,
		partitions:  parts,
		manifestGen: gen,
		renderedAt:  time.Now(),
		qview:       qv,
	}, warmOK
}

// saveCheckpoint persists the serving analyzer's state (no-op without
// -checkpoint). Failures are logged, not fatal: the file is an
// accelerator for the next startup, never a serving dependency.
func (s *server) saveCheckpoint(a *telcolens.Analyzer) {
	if s.checkpoint == "" {
		return
	}
	if err := telcolens.SaveCheckpoint(s.checkpoint, a); err != nil {
		log.Printf("saving checkpoint %s: %v", s.checkpoint, err)
	}
}

// degradedDays reports the study days excluded from serving because a
// scrub quarantined their partitions — the daemon's declared degraded
// mode, surfaced on /healthz and /stats. Errors read as "no log".
func (s *server) degradedDays() []int {
	recs, err := trace.LoadQuarantine(nil, s.dir)
	if err != nil || len(recs) == 0 {
		return nil
	}
	return trace.QuarantinedDays(recs)
}

// pendingBeyondWindow reports whether the store holds partitions for
// days the campaign manifest does not describe yet — an append caught
// between landing a day and re-saving manifest.json. The serving state
// must not mark itself synced then: the campaign manifest update does
// not bump the trace MANIFEST generation, so skipping now would skip
// forever.
func pendingBeyondWindow(ds *telcolens.Dataset) bool {
	mr, ok := ds.Store.(trace.ManifestReader)
	if !ok {
		return false
	}
	m, err := mr.Manifest()
	if err != nil || m == nil {
		return false
	}
	for i := range m.Partitions {
		if m.Partitions[i].Day >= ds.Config.Days {
			return true
		}
	}
	return false
}

// manifestGen reads the trace store's current manifest generation
// without touching partition files (0 when no usable manifest).
func manifestGen(store telcolens.Store) uint64 {
	mr, ok := store.(trace.ManifestReader)
	if !ok {
		return 0
	}
	m, err := mr.Manifest()
	if err != nil || m == nil {
		return 0
	}
	return m.Gen
}

// loadCampaign loads the campaign in dir together with the store
// generation read before the load — the only generation the loaded
// state is known to cover (the store may move at any time after).
func loadCampaign(dir string) (*telcolens.Dataset, uint64, error) {
	var gen uint64
	if store, err := trace.NewFileStore(dir); err == nil {
		gen = manifestGen(store)
	}
	ds, err := telcolens.Load(dir)
	return ds, gen, err
}

// refresh reloads the campaign and brings the serving state up to date:
// checkpoint the current analyzer, resume it against the reloaded
// dataset, Refresh (scanning only new partitions), re-render, swap. On
// any error the previous snapshot keeps serving and the next poll
// retries — a store caught mid-append simply fails validation until the
// day finishes landing.
func (s *server) refresh(ctx context.Context) error {
	start := time.Now()
	s.mu.RLock()
	old := s.cur
	s.mu.RUnlock()

	ds, gen, err := loadCampaign(s.dir)
	if err != nil {
		return fmt.Errorf("reloading campaign: %w", err)
	}
	if s.afterLoad != nil {
		s.afterLoad()
	}
	var a *telcolens.Analyzer
	fullRescan := false
	var ckpt bytes.Buffer
	if err := old.analyzer.Checkpoint(&ckpt); err != nil {
		return fmt.Errorf("checkpointing: %w", err)
	}
	a, err = telcolens.ResumeAnalyzer(ds, &ckpt, s.options()...)
	if err != nil {
		// The campaign changed identity (regenerated with another seed or
		// shape): fall back to a cold rebuild.
		log.Printf("refresh: checkpoint not resumable (%v); rebuilding cold", err)
		fullRescan = true
		if a, err = telcolens.NewAnalyzer(ds, s.options()...); err != nil {
			return err
		}
	}
	res, err := a.Refresh(ctx)
	if err != nil {
		return fmt.Errorf("refreshing: %w", err)
	}
	if res.PartitionsScanned == 0 && !res.FullRescan && ds.Config.Days == old.days {
		// Nothing new to merge — usually a mid-append poll (some shards
		// of a day landed, the day is incomplete). Skip the re-render and
		// swap; only mark the generation consumed when no landed
		// partition is still waiting for the campaign manifest to
		// describe it, because that manifest update does not bump the
		// trace MANIFEST generation and must not be skipped past.
		if !pendingBeyondWindow(ds) {
			s.mu.Lock()
			s.lastGen = gen
			s.mu.Unlock()
		}
		s.pokeIfMoved(ds.Store, gen)
		return nil
	}
	next, warmOK := build(ctx, a, ds, gen)

	s.mu.Lock()
	s.cur = next
	if warmOK {
		s.lastGen = gen
	}
	// Cached query results are keyed on the view generation; a swap
	// makes them unreachable, so drop them rather than let them age out.
	s.eng.InvalidateCache()
	s.refreshes++
	if fullRescan || res.FullRescan {
		s.fullRescans++
	}
	s.lastScanned = res.PartitionsScanned
	s.lastRefreshDur = time.Since(start)
	s.mu.Unlock()
	s.saveCheckpoint(a)
	log.Printf("refresh: %d partitions merged (full rescan: %v), %d days, %d artifacts, took %s",
		res.PartitionsScanned, fullRescan || res.FullRescan, res.Days, len(next.order),
		time.Since(start).Round(time.Millisecond))
	s.pokeIfMoved(ds.Store, gen)
	return nil
}

// poke wakes the watch loop without blocking (seal notifications from
// the co-hosted ingest service; coalesced by the 1-slot buffer).
func (s *server) poke() {
	select {
	case s.nudge <- struct{}{}:
	default:
	}
}

// pokeIfMoved wakes the watch loop when the store has moved past gen,
// the generation a refresh or bootstrap just marked as served. The store
// may move while either runs (a day sealing, another shard landing);
// poking on the way out makes the rest visible now rather than at the
// next poll tick.
func (s *server) pokeIfMoved(store telcolens.Store, gen uint64) {
	if manifestGen(store) != gen {
		s.poke()
	}
}

// bootstrap brings a pending server live once the campaign descriptor
// exists: load, cold scan, serve.
func (s *server) bootstrap(ctx context.Context) error {
	ds, gen, err := loadCampaign(s.dir)
	if err != nil {
		return err
	}
	a, err := telcolens.NewAnalyzer(ds, s.options()...)
	if err != nil {
		return err
	}
	snap, warmOK := build(ctx, a, ds, gen)
	s.mu.Lock()
	s.cur = snap
	if warmOK {
		s.lastGen = gen
	}
	s.eng.InvalidateCache()
	s.mu.Unlock()
	s.saveCheckpoint(a)
	log.Printf("campaign bootstrapped: %d days, %d artifacts", snap.days, len(snap.order))
	s.pokeIfMoved(ds.Store, gen)
	return nil
}

// watch polls the store manifest — and listens for local seal nudges —
// and refreshes when the store generation moves past what the serving
// state is synced to.
func (s *server) watch(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		case <-s.nudge:
		}
		s.mu.RLock()
		pending := s.cur == nil
		synced := s.lastGen
		s.mu.RUnlock()
		if pending {
			if _, err := os.Stat(s.dir); err != nil {
				continue
			}
			if err := s.bootstrap(ctx); err != nil {
				// Normal while no descriptor has been ingested yet.
				continue
			}
			continue
		}
		store, err := trace.NewFileStore(s.dir)
		if err != nil {
			continue
		}
		gen := manifestGen(store)
		if gen == synced {
			continue
		}
		if err := s.refresh(ctx); err != nil {
			s.mu.Lock()
			s.refreshErrors++
			s.mu.Unlock()
			log.Printf("refresh failed (serving previous state): %v", err)
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	e := json.NewEncoder(w)
	e.SetIndent("", " ")
	if err := e.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// current returns the serving snapshot, or nil after replying 503 when
// the campaign is still pending its first ingest.
func (s *server) current(w http.ResponseWriter) *snapshot {
	s.mu.RLock()
	cur := s.cur
	s.mu.RUnlock()
	if cur == nil {
		http.Error(w, "campaign pending: waiting for POST /ingest/init", http.StatusServiceUnavailable)
		return nil
	}
	return cur
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	cur := s.current(w)
	if cur == nil {
		return
	}
	fmt.Fprintf(w, "telcolens serving %d artifacts over %d study days (snapshot %s)\n\n",
		len(cur.order), cur.days, cur.renderedAt.UTC().Format(time.RFC3339))
	for _, id := range cur.order {
		v := cur.views[id]
		status := ""
		if v.Err != "" {
			status = "  [error]"
		}
		fmt.Fprintf(w, "  /artifacts/%-10s %-12s %s%s\n", id, v.PaperRef, v.Title, status)
	}
	fmt.Fprintf(w, "\n  /query   ad-hoc slices: ?ue=&tac=&sector=&from=&to=&limit=&agg=\n")
	fmt.Fprintf(w, "  /stats   serving, scan and query statistics\n")
}

func (s *server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	cur := s.current(w)
	if cur == nil {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/artifacts")
	id = strings.Trim(id, "/")
	if id == "" {
		type entry struct {
			ID       string `json:"id"`
			Title    string `json:"title"`
			PaperRef string `json:"paper_ref"`
			Error    string `json:"error,omitempty"`
		}
		out := make([]entry, 0, len(cur.order))
		for _, id := range cur.order {
			v := cur.views[id]
			out = append(out, entry{ID: v.ID, Title: v.Title, PaperRef: v.PaperRef, Error: v.Err})
		}
		writeJSON(w, out)
		return
	}
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	v, ok := cur.views[id]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown artifact %q", id), http.StatusNotFound)
		return
	}
	if v.Err != "" {
		http.Error(w, v.Err, http.StatusUnprocessableEntity)
		return
	}
	if wantJSON {
		writeJSON(w, v.Artifact)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(v.Text)
}

// ingestView summarizes the co-hosted ingest side for /stats and
// /healthz (nil without -ingest).
func (s *server) ingestView() map[string]any {
	if s.ing == nil {
		return nil
	}
	ist := s.ing.Stats()
	return map[string]any{
		"initialized":          ist.Initialized,
		"sealed_days":          ist.SealedDays,
		"pending_days":         ist.PendingDays,
		"memtable_records":     ist.MemtableRecords,
		"wal_bytes":            ist.WALBytes,
		"ingest_lag_sec":       ist.IngestLagSec,
		"ingested_records":     ist.IngestedRecords,
		"duplicate_batches":    ist.DuplicateBatches,
		"backpressure_rejects": ist.BackpressureRejects,
		"seals":                ist.Seals,
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	cur := s.cur
	refreshes, fullRescans, refreshErrors := s.refreshes, s.fullRescans, s.refreshErrors
	lastScanned, lastDur := s.lastScanned, s.lastRefreshDur
	s.mu.RUnlock()
	out := map[string]any{
		"started":        s.started.UTC(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"pending":        cur == nil,
		"refreshes":      refreshes,
		"full_rescans":   fullRescans,
		"refresh_errors": refreshErrors,
		"last_refresh": map[string]any{
			"partitions_merged": lastScanned,
			"duration_seconds":  lastDur.Seconds(),
		},
	}
	if cur != nil {
		st := cur.analyzer.ScanStats()
		out["days"] = cur.days
		out["partitions"] = cur.partitions
		out["manifest_gen"] = cur.manifestGen
		out["snapshot_at"] = cur.renderedAt.UTC()
		out["snapshot_age_sec"] = time.Since(cur.renderedAt).Seconds()
		out["artifacts"] = len(cur.order)
		out["scan"] = map[string]any{
			"scans":          st.Scans,
			"partitions":     st.Partitions,
			"records":        st.Records,
			"blocks_read":    st.BlocksRead,
			"blocks_skipped": st.BlocksSkipped,
			"bytes_read":     st.BytesRead,
		}
	}
	out["query"] = s.queryStats()
	if s.adm != nil {
		out["admission"] = s.adm.Stats()
	}
	if days := s.degradedDays(); len(days) > 0 {
		out["degraded"] = true
		out["quarantined_days"] = days
	}
	if iv := s.ingestView(); iv != nil {
		out["ingest"] = iv
	}
	writeJSON(w, out)
}

// handleHealthz is the liveness probe: always 200 while the process
// serves, with enough state to see the live pipeline at a glance —
// serving generation, snapshot age, declared degraded mode (days a
// scrub quarantined), and (in ingest mode) WAL depth, memtable
// backlog, and ingest lag.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	cur := s.cur
	s.mu.RUnlock()
	out := map[string]any{"status": "ok"}
	if cur == nil {
		out["status"] = "pending"
	} else {
		out["days"] = cur.days
		out["manifest_gen"] = cur.manifestGen
		out["snapshot_age_sec"] = time.Since(cur.renderedAt).Seconds()
	}
	if days := s.degradedDays(); len(days) > 0 {
		// Still 200: the daemon is healthy, the data is declaredly
		// partial. Probes alert on the field, not the status code.
		out["status"] = "degraded"
		out["quarantined_days"] = days
	}
	if s.adm != nil {
		// The overload window rides on every probe (trips, window
		// counters); a live degraded window also flips the status.
		st := s.adm.State()
		out["overload"] = st
		if st.Degraded {
			out["status"] = "degraded"
		}
	}
	if iv := s.ingestView(); iv != nil {
		out["ingest"] = iv
	}
	writeJSON(w, out)
}

// writeShed answers a shed request: 429 with Retry-After and a JSON
// body naming the reason, so clients distinguish declared load
// shedding from real failures and know when to come back.
func writeShed(w http.ResponseWriter, reason string, retryAfter int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(map[string]any{
		"error":               reason,
		"retry_after_seconds": retryAfter,
	})
}

// writeAdmissionError maps an Admit failure onto the wire: both shed
// shapes are 429 + Retry-After (the client remedy is the same — back
// off), a context expiring while queued is 503.
func (s *server) writeAdmissionError(w http.ResponseWriter, err error) {
	var ov *admission.OverloadError
	var qf *admission.QueueFullError
	switch {
	case errors.As(err, &ov):
		writeShed(w, "overloaded", s.adm.RetryAfter())
	case errors.As(err, &qf):
		writeShed(w, "queue_full", s.adm.RetryAfter())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "request abandoned while queued for admission", http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// admitted wraps h in the class's admission decision. A nil controller
// (tests) admits everything.
func (s *server) admitted(class admission.Class, h http.Handler) http.Handler {
	if s.adm == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := s.adm.Admit(r.Context(), class)
		if err != nil {
			s.writeAdmissionError(w, err)
			return
		}
		defer release()
		h.ServeHTTP(w, r)
	})
}

// routes assembles the daemon's handler tree. /query runs its own
// admission inside handleQuery (it needs the cache-only degraded
// path); /stats and /healthz stay outside admission control entirely —
// observability must answer precisely when the daemon is shedding.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.admitted(admission.ClassArtifacts, http.HandlerFunc(s.handleIndex)))
	art := s.admitted(admission.ClassArtifacts, http.HandlerFunc(s.handleArtifacts))
	mux.Handle("/artifacts", art)
	mux.Handle("/artifacts/", art)
	mux.Handle("/query", http.MaxBytesHandler(http.HandlerFunc(s.handleQuery), maxQueryBody))
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.ing != nil {
		ih := http.MaxBytesHandler(s.admitted(admission.ClassIngest, s.ing.Handler()), maxIngestBody)
		mux.Handle("/ingest", ih)
		mux.Handle("/ingest/", ih)
	}
	return mux
}

// newHTTPServer wraps a handler tree in the hardened http.Server (the
// timeout constants above); extracted so tests can run the real server
// shape against a live listener.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

// startupScrub audits the store before the daemon loads anything,
// quarantining corrupt partitions so the campaign serves its surviving
// days in declared degraded mode instead of failing outright.
func startupScrub(ctx context.Context, dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return nil // nothing to scrub yet (ingest-mode cold start)
	}
	store, err := trace.NewFileStore(dir)
	if err != nil {
		return err
	}
	res, err := trace.Scrub(ctx, store)
	if err != nil {
		return fmt.Errorf("startup scrub: %w", err)
	}
	if res.Report.OK() && len(res.Report.Issues) == 0 {
		log.Printf("startup scrub: %d partitions clean", res.Report.Partitions)
		return nil
	}
	for _, p := range res.Quarantined {
		log.Printf("startup scrub: quarantined day %d shard %d", p.Day, p.Shard)
	}
	for _, p := range res.IndexesDropped {
		log.Printf("startup scrub: dropped corrupt index day %d shard %d", p.Day, p.Shard)
	}
	for _, p := range res.EntriesDropped {
		log.Printf("startup scrub: dropped manifest entry day %d shard %d (file missing)", p.Day, p.Shard)
	}
	return nil
}

func run(cfg serveConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.scrub {
		if err := startupScrub(ctx, cfg.dir); err != nil {
			return err
		}
	}

	s := &server{dir: cfg.dir, parallel: cfg.parallel, checkpoint: cfg.checkpoint,
		started: time.Now(), nudge: make(chan struct{}, 1),
		adm: admission.NewController(cfg.admission)}
	// The query engine reads partitions through its own store handle —
	// FileStore is stateless, so one handle serves every generation; the
	// per-snapshot view pins which partitions a query may touch.
	qstore, err := trace.NewFileStore(cfg.dir)
	if err != nil {
		return fmt.Errorf("opening store for queries: %w", err)
	}
	s.eng = query.New(qstore)
	if cfg.ingestOn {
		svc, err := ingest.Open(cfg.dir, ingest.Options{
			MaxPendingRecords: cfg.ingestMax,
			SyncEvery:         cfg.walSync,
			OnSeal: func(day int) {
				log.Printf("ingest: day %d sealed", day)
				s.poke()
			},
		})
		if err != nil {
			return fmt.Errorf("opening ingest service: %w", err)
		}
		defer svc.Close()
		s.ing = svc
	}

	ds, gen, err := loadCampaign(cfg.dir)
	switch {
	case err == nil:
		var a *telcolens.Analyzer
		var resumed bool
		if cfg.checkpoint != "" {
			a, resumed, err = telcolens.ResumeAnalyzerFile(cfg.checkpoint, ds, s.options()...)
		} else {
			a, err = telcolens.NewAnalyzer(ds, s.options()...)
		}
		if err != nil {
			return err
		}
		if resumed {
			if _, err := a.Refresh(ctx); err != nil {
				// A resumable checkpoint the store has since diverged from:
				// rebuild cold rather than refuse to start.
				log.Printf("refreshing resumed checkpoint: %v; rebuilding cold", err)
				resumed = false
				if a, err = telcolens.NewAnalyzer(ds, s.options()...); err != nil {
					return err
				}
			}
		}
		start := time.Now()
		log.Printf("warming analysis state for %s (%d days, resumed checkpoint: %v)...",
			cfg.dir, ds.Config.Days, resumed)
		snap, warmOK := build(ctx, a, ds, gen)
		s.cur = snap
		if warmOK {
			// A failed warm-up leaves lastGen at 0, so the poll loop keeps
			// retrying instead of serving error artifacts until restart.
			s.lastGen = gen
			s.saveCheckpoint(a)
		}
		log.Printf("serving %d artifacts on %s (initial scan took %s)",
			len(s.cur.order), cfg.addr, time.Since(start).Round(time.Millisecond))
	case cfg.ingestOn:
		// No campaign yet: serve 503s and bootstrap once the descriptor
		// arrives over POST /ingest/init.
		log.Printf("no campaign in %s yet (%v); waiting for ingest", cfg.dir, err)
	default:
		return err
	}

	go s.watch(ctx, cfg.poll)

	srv := newHTTPServer(cfg.addr, s.routes())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight requests finish
	// within the budget, then stop the ingest side seal-safely — a
	// non-forced flush seals any complete days; everything else stays
	// acknowledged-durable in the WAL for replay on the next start.
	log.Printf("shutting down (drain %s)", cfg.drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	err = srv.Shutdown(shutCtx)
	if s.ing != nil {
		if _, ferr := s.ing.Flush(false); ferr != nil && !errors.Is(ferr, ingest.ErrNotInitialized) {
			log.Printf("ingest drain flush: %v", ferr)
		}
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
