// Command telcoserve is a long-running HTTP daemon that serves the
// paper's analysis artifacts from a campaign directory — the repo's
// first serving workload. It keeps the campaign's world model and the
// full scan state warm in memory, watches the trace store's MANIFEST,
// and when new days land (telcogen -append, a streaming-ingest seal)
// refreshes in place: the campaign manifest is re-read, only the new
// partitions are scanned into the live analyzer, and a read-only
// generation of it is swapped in: /healthz, /query and the artifacts show
// the day at once. Each artifact renders from the generation when it is
// first requested, once per generation, so a day costs only the views
// someone reads. Clients never trigger a rescan.
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
// POST /ingest/init, and the refresh loop's next step brings it live.
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
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"telcolens"
	"telcolens/internal/admission"
	"telcolens/internal/analysis"
	"telcolens/internal/ingest"
	"telcolens/internal/query"
	"telcolens/internal/trace"
)

func main() {
	var (
		data     = flag.String("data", "campaign", "campaign directory (from telcogen)")
		addr     = flag.String("addr", ":8480", "HTTP listen address")
		poll     = flag.Duration("poll", 2*time.Second, "store manifest poll interval")
		parallel = flag.Int("parallel", 0, "analysis scan and artifact render parallelism (0 = GOMAXPROCS); /query scans always use GOMAXPROCS")
		ingestOn = flag.Bool("ingest", false, "mount the streaming ingest endpoints (/ingest/*) on this address")
		walSync  = flag.Bool("wal-sync", false, "fsync the ingest WAL on every batch (machine-crash durability)")
		scrub    = flag.Bool("scrub", false, "audit the store at startup and quarantine corrupt partitions before serving")
		ckptPath = flag.String("checkpoint", "", "analyzer checkpoint file: resumed whenever an analyzer is built cold, saved after every refresh (empty = cold scans only)")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain budget for in-flight requests")
	)
	flag.Parse()

	cfg := serveConfig{
		dir:        *data,
		addr:       *addr,
		poll:       *poll,
		parallel:   *parallel,
		ingestOn:   *ingestOn,
		walSync:    *walSync,
		scrub:      *scrub,
		checkpoint: *ckptPath,
		drain:      *drain,
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
	scrub      bool
	checkpoint string
	drain      time.Duration
}

// HTTP hardening bounds: header/body read and response write deadlines
// per request, plus body-size caps on the two endpoints that accept or
// stream significant payloads. A request never scans: an artifact
// request at most runs experiments over a generation's finalized state,
// so tight deadlines are safe.
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

// artifactView is one rendered experiment held in memory: its text and
// JSON answers, or the error that stopped it.
type artifactView struct {
	ID       string
	Title    string
	PaperRef string
	Text     []byte
	// Err is the experiment's error, or its text render's; JSON is the
	// artifact's JSON answer, unless encoding it failed with JSONErr.
	Err     string
	JSON    []byte
	JSONErr string
}

// artifactSlot memoizes one experiment's view for a snapshot. flight is
// open while a request's run of the experiment is in progress; requests
// for the id wait on it rather than run the experiment again.
type artifactSlot struct {
	mu     sync.Mutex
	view   *artifactView
	flight chan struct{}
}

// snapshot is one serving generation: a read-only analyzer over the
// finalized scan state, the views rendered from it so far, and the scan
// counters at publication. A refresh publishes a new snapshot; the live
// analyzer the generation was taken from is refreshed in place, and
// nothing it writes reaches the generation, so no handler reads state a
// refresh mutates.
type snapshot struct {
	// gen is the generation the artifacts render from; exps are the
	// experiments, in registry order, and arts their memoized views.
	gen         *telcolens.Analyzer
	exps        []telcolens.Experiment
	arts        []artifactSlot
	parallel    int // the experiment pool's bound for / and /artifacts
	days        int
	partitions  int
	manifestGen uint64
	publishedAt time.Time
	scan        telcolens.ScanStats
	// quarantined lists the days a scrub had quarantined when the step
	// that published this generation ran: the degraded mode /healthz and
	// /stats declare, read from memory like the rest of a probe's answer.
	quarantined []int
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
	// resumed whenever refresh builds an analyzer cold, re-saved after
	// every published generation so a restart warms up without a full
	// rescan.
	checkpoint string
	// ing is the co-hosted ingest service (nil without -ingest); nudge
	// wakes the watch loop the moment a local seal lands.
	ing   *ingest.Service
	nudge chan struct{}
	// eng executes /query requests; its result cache is invalidated on
	// every snapshot swap.
	eng *query.Engine
	// ds is the kept campaign and live the analyzer the serving
	// generation was taken from: a refresh reloads ds and refreshes live,
	// both in place. Only the watch loop — and start-up before it runs —
	// touches them; Dataset.Reload and Analyzer.Refresh are safe only on
	// the goroutine that drives both. A nil ds makes the next refresh load
	// the campaign cold, a nil live makes it build its analyzer cold.
	ds   *telcolens.Dataset
	live *telcolens.Analyzer
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
	// the campaign was loaded (reload), never after: what was
	// loaded covers at least that generation, so a day sealed while a
	// refresh is running leaves the store ahead of lastGen and is
	// picked up by the next one.
	lastGen uint64
	// afterLoad, when set (tests), runs right after a refresh has
	// reloaded the campaign — the window in which a concurrent seal used
	// to be marked served without having been loaded.
	afterLoad func()

	started        time.Time
	refreshes      int64
	fullRescans    int64
	worldRebuilds  int64
	refreshErrors  int64
	lastScanned    int
	lastRefreshDur time.Duration
	lastStages     refreshStages

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

// refreshStages splits one refresh's wall time for /stats.
type refreshStages struct {
	// reload re-reads the campaign manifest (and builds the world when
	// the campaign is new or changed identity).
	reload time.Duration
	// refresh is the analyzer's scan and finalize: the in-place merge of
	// the new partitions, or the full scan of a cold rescan.
	refresh time.Duration
	// swap takes the generation, builds the query view and publishes the
	// snapshot. reload, refresh and swap add up to the step, after which
	// every endpoint shows the day.
	swap time.Duration
}

// newSnapshot builds the serving snapshot of a generation, no artifact
// rendered yet.
func newSnapshot(g *telcolens.Analyzer, ds *telcolens.Dataset, gen uint64, quarantined []int, parallel int) *snapshot {
	exps := telcolens.Experiments()
	parts, _ := g.Covered()
	qv, err := query.NewView(ds.Config.Store)
	if err != nil {
		log.Printf("building query view: %v (/query disabled for this snapshot)", err)
		qv = nil
	}
	return &snapshot{
		gen:         g,
		exps:        exps,
		arts:        make([]artifactSlot, len(exps)),
		parallel:    parallel,
		days:        ds.Config.Days,
		partitions:  parts,
		manifestGen: gen,
		publishedAt: time.Now(),
		scan:        g.ScanStats(),
		quarantined: quarantined,
		qview:       qv,
	}
}

// artifact returns experiment i's view, running the experiment on the
// first request for it. Concurrent requests share that run, and its view
// is kept for every later one. A run whose requesting context ended
// before it returned is not kept (its error may be the cancellation):
// the next request runs it again. ok is false when ctx ends first; the
// run then goes on without the request.
func (snap *snapshot) artifact(ctx context.Context, i int) (v *artifactView, ok bool) {
	slot := &snap.arts[i]
	for ctx.Err() == nil {
		slot.mu.Lock()
		v, flight := slot.view, slot.flight
		if v == nil && flight == nil {
			flight = make(chan struct{})
			slot.flight = flight
			go snap.run(ctx, i, flight)
		}
		slot.mu.Unlock()
		if v != nil {
			return v, true
		}
		select {
		case <-flight:
		case <-ctx.Done():
		}
	}
	return nil, false
}

// run renders experiment i for the flight it closes, keeping the view
// unless ctx ended meanwhile.
func (snap *snapshot) run(ctx context.Context, i int, flight chan struct{}) {
	v := renderView(ctx, snap.exps[i], snap.gen)
	slot := &snap.arts[i]
	slot.mu.Lock()
	if ctx.Err() == nil {
		slot.view = v
	}
	slot.flight = nil
	slot.mu.Unlock()
	close(flight)
}

// all returns every experiment's view, running the ones no request has
// yet on the experiment pool; ok is false when ctx ends first.
func (snap *snapshot) all(ctx context.Context) (views []*artifactView, ok bool) {
	views = make([]*artifactView, len(snap.exps))
	analysis.RunPool(snap.parallel, len(snap.exps), func(i int) {
		views[i], _ = snap.artifact(ctx, i)
	})
	return views, !slices.Contains(views, nil)
}

// index finds an experiment by id, or -1.
func (snap *snapshot) index(id string) int {
	return slices.IndexFunc(snap.exps, func(e telcolens.Experiment) bool { return e.ID == id })
}

// renderView runs one experiment on the generation into its view. A failed
// experiment (e.g. a window too short for home detection) is served as an
// error view instead of taking the daemon down.
func renderView(ctx context.Context, e telcolens.Experiment, g *telcolens.Analyzer) *artifactView {
	v := &artifactView{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef}
	art, err := e.Run(ctx, g)
	if err != nil {
		v.Err = err.Error()
		v.Text = []byte(fmt.Sprintf("%s — error: %v\n", e.ID, err))
		return v
	}
	var buf bytes.Buffer
	if err := art.Render(&buf); err != nil {
		v.Err = err.Error()
	}
	v.Text = buf.Bytes()
	if v.JSON, err = encodeJSON(art); err != nil {
		v.JSONErr = err.Error()
	}
	return v
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

// degradedDays reads the study days excluded from serving because a
// scrub quarantined their partitions — the daemon's declared degraded
// mode. Errors read as "no log". A refresh step that publishes reads it
// once, after the reload: a scrub writes the quarantine log before the
// MANIFEST generation that drops the partitions, so the step that loads
// that generation sees the log that explains it.
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
	m, err := ds.Config.Store.Manifest()
	if err != nil {
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
// without touching partition files (0 when the MANIFEST is unreadable).
func manifestGen(store telcolens.Store) uint64 {
	m, err := store.Manifest()
	if err != nil {
		return 0
	}
	return m.Gen
}

// openStore opens the store in dir without creating dir: NewFileStore
// makes a missing directory, and only -ingest (ingest.Open) may.
func openStore(dir string) (*trace.FileStore, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	return trace.NewFileStore(dir)
}

// reload brings the kept campaign up to date with its manifest and
// returns the store generation read before it — the only generation the
// reloaded state is known to cover (the store may move at any time
// after). The first load, and the one after a failed reload, builds the
// campaign cold; rebuilt reports a new world model, against which no
// analyzer over the previous one may be refreshed.
func (s *server) reload() (gen uint64, rebuilt bool, err error) {
	if s.ds == nil {
		store, err := openStore(s.dir)
		if err != nil {
			return 0, false, err
		}
		gen = manifestGen(store)
		if s.ds, err = telcolens.Load(s.dir); err != nil {
			return 0, false, err
		}
		return gen, true, nil
	}
	gen = manifestGen(s.ds.Config.Store)
	if rebuilt, err = s.ds.Reload(); err != nil {
		// Start over from a cold load: the kept dataset is not known to
		// match whatever Reload failed on.
		s.ds = nil
		return 0, false, err
	}
	return gen, rebuilt, nil
}

// coldAnalyzer builds the analyzer for a refresh that has no live one to
// refresh in place. With -checkpoint it resumes the file and Refreshes
// it, scanning only what the checkpoint does not cover; res is that
// Refresh's result. Otherwise — no checkpoint, an unusable file, or one
// the store has since diverged from — it returns an empty analyzer and a
// nil res, and refresh's warm scan reads every partition.
func (s *server) coldAnalyzer(ctx context.Context, ds *telcolens.Dataset) (a *telcolens.Analyzer, res *telcolens.RefreshResult, err error) {
	if s.checkpoint == "" {
		a, err = telcolens.NewAnalyzer(ds, s.options()...)
		return a, nil, err
	}
	a, resumed, err := telcolens.ResumeAnalyzerFile(s.checkpoint, ds, s.options()...)
	if err != nil || !resumed {
		return a, nil, err
	}
	if res, err = a.Refresh(ctx); err != nil {
		log.Printf("refreshing resumed checkpoint: %v; rebuilding cold", err)
		a, err = telcolens.NewAnalyzer(ds, s.options()...)
		return a, nil, err
	}
	return a, res, nil
}

// refresh is the one way to a serving generation: start-up, a pending
// campaign coming live and every later day all take it, and the watch
// loop only decides when. It brings the serving state up to date at the
// cost of the delta: the kept campaign reloads its manifest in place,
// the live analyzer Refreshes in place (scanning only the new
// partitions), and a read-only generation of it is swapped in — every
// endpoint shows the day from here, and the step returns. The artifacts
// render from that generation when they are first requested, so the next
// step may refresh the live analyzer, and save its checkpoint, while they
// do. Without a kept campaign it loads one cold; without a live analyzer,
// or over a rebuilt world, it builds one cold (coldAnalyzer). On any
// error before the swap the previous snapshot keeps serving and the next
// step retries: a failed Refresh may have merged part of its delta, so
// the live analyzer is dropped and the retry builds cold. A store caught
// mid-append simply fails validation until the day finishes landing.
// While nothing is served a failed warm scan still publishes, since
// there is nothing older to serve, but neither marks the generation
// served nor keeps the analyzer; the experiments whose scan state it
// lacks serve their error.
func (s *server) refresh(ctx context.Context) error {
	start := time.Now()
	s.mu.RLock()
	old := s.cur
	s.mu.RUnlock()

	gen, rebuilt, err := s.reload()
	if err != nil {
		return fmt.Errorf("reloading campaign: %w", err)
	}
	// The first generation published counts as no refresh, no world
	// rebuild and no full rescan.
	if rebuilt && old != nil {
		s.mu.Lock()
		s.worldRebuilds++
		s.mu.Unlock()
	}
	if s.afterLoad != nil {
		s.afterLoad()
	}
	ds := s.ds
	st := refreshStages{reload: time.Since(start)}

	t := time.Now()
	a, cold := s.live, rebuilt || s.live == nil
	var res *telcolens.RefreshResult
	if cold {
		// Never left behind for a later in-place Refresh: it belongs to the
		// previous world, or to no state at all.
		s.live = nil
		if a, res, err = s.coldAnalyzer(ctx, ds); err != nil {
			return err
		}
	} else {
		if res, err = a.Refresh(ctx); err != nil {
			s.live = nil
			return fmt.Errorf("refreshing: %w", err)
		}
		if res.PartitionsScanned == 0 && !res.FullRescan && ds.Config.Days == old.days {
			// Nothing new to merge — usually a mid-append poll (some shards
			// of a day landed, the day is incomplete). Skip the swap; only
			// mark the generation consumed when no landed partition is
			// still waiting for the campaign manifest to describe it,
			// because that manifest update does not bump the trace
			// MANIFEST generation and must not be skipped past.
			if !pendingBeyondWindow(ds) {
				s.mu.Lock()
				s.lastGen = gen
				s.mu.Unlock()
			}
			s.pokeIfMoved(ds.Config.Store, gen)
			return nil
		}
	}
	// One fused pass computes every scan-state unit the experiments share
	// (an analyzer refreshed in place already holds them); the generation
	// only reads that state, so a failing read fails here rather than
	// becoming a served error artifact.
	_, warmErr := a.Scan(ctx)
	if warmErr != nil {
		s.live = nil
		if old != nil {
			return fmt.Errorf("warming scan state: %w", warmErr)
		}
		log.Printf("warming scan state: %v (experiments needing scan state serve an error until a step succeeds)", warmErr)
	}
	st.refresh = time.Since(t)

	t = time.Now()
	g, err := a.Generation()
	if err != nil {
		s.live = nil
		return fmt.Errorf("taking the generation: %w", err)
	}
	next := newSnapshot(g, ds, gen, s.degradedDays(), s.parallel)
	// An analyzer built empty is filled by the warm scan.
	merged, fullRescan := next.partitions, true
	if res != nil {
		merged, fullRescan = res.PartitionsScanned, res.FullRescan
	}
	s.mu.Lock()
	s.cur = next
	if warmErr == nil {
		s.lastGen = gen
	}
	// Cached query results are keyed on the view generation; a swap
	// makes them unreachable, so drop them rather than let them age out.
	s.eng.InvalidateCache()
	if old != nil {
		s.refreshes++
		if fullRescan {
			s.fullRescans++
		}
	}
	s.lastScanned = merged
	st.swap = time.Since(t)
	s.lastStages = st
	s.lastRefreshDur = time.Since(start)
	s.mu.Unlock()
	if warmErr == nil {
		s.live = a
		s.saveCheckpoint(a)
	}
	log.Printf("serving generation %d: %d partitions merged (full rescan: %v, world rebuilt: %v, resumed checkpoint: %v), %d days, %d artifacts, took %s",
		gen, merged, fullRescan, rebuilt, cold && res != nil, ds.Config.Days, len(next.exps),
		time.Since(start).Round(time.Millisecond))
	s.pokeIfMoved(ds.Config.Store, gen)
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
// the generation a refresh just marked as served. The store may move
// while it runs (a day sealing, another shard landing); poking on the
// way out makes the rest visible now rather than at the next poll tick.
func (s *server) pokeIfMoved(store telcolens.Store, gen uint64) {
	if manifestGen(store) != gen {
		s.poke()
	}
}

// watch steps the serving state on every poll tick and local seal
// nudge: it decides when, refresh decides what. It steps while nothing
// is served, and once the store generation moves past the one the
// serving state is synced to. The generation is read through the kept
// campaign's store, which creates nothing; without a kept campaign (a
// failed reload dropped it) the step loads cold.
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
		served, synced := s.cur != nil, s.lastGen
		s.mu.RUnlock()
		if served && s.ds != nil && manifestGen(s.ds.Config.Store) == synced {
			continue
		}
		// A pending campaign fails every load until its descriptor
		// arrives: normal, so neither counted nor logged.
		if err := s.refresh(ctx); err != nil && served {
			s.mu.Lock()
			s.refreshErrors++
			s.mu.Unlock()
			log.Printf("refresh failed (serving previous state): %v", err)
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSONBytes(w, b)
}

// encodeJSON is the daemon's one JSON rendering: indented by one space,
// newline-terminated.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	e := json.NewEncoder(&buf)
	e.SetIndent("", " ")
	if err := e.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeJSONBytes(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
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

// writeAbandoned answers an artifact request whose context ended while
// its experiments ran.
func writeAbandoned(w http.ResponseWriter) {
	http.Error(w, "request abandoned while the artifacts rendered", http.StatusServiceUnavailable)
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
	views, ok := cur.all(r.Context())
	if !ok {
		writeAbandoned(w)
		return
	}
	fmt.Fprintf(w, "telcolens serving %d artifacts over %d study days (snapshot %s)\n\n",
		len(views), cur.days, cur.publishedAt.UTC().Format(time.RFC3339))
	for _, v := range views {
		status := ""
		if v.Err != "" {
			status = "  [error]"
		}
		fmt.Fprintf(w, "  /artifacts/%-10s %-12s %s%s\n", v.ID, v.PaperRef, v.Title, status)
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
		views, ok := cur.all(r.Context())
		if !ok {
			writeAbandoned(w)
			return
		}
		type entry struct {
			ID       string `json:"id"`
			Title    string `json:"title"`
			PaperRef string `json:"paper_ref"`
			Error    string `json:"error,omitempty"`
		}
		out := make([]entry, 0, len(views))
		for _, v := range views {
			out = append(out, entry{ID: v.ID, Title: v.Title, PaperRef: v.PaperRef, Error: v.Err})
		}
		writeJSON(w, out)
		return
	}
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	i := cur.index(id)
	if i < 0 {
		http.Error(w, fmt.Sprintf("unknown artifact %q", id), http.StatusNotFound)
		return
	}
	v, ok := cur.artifact(r.Context(), i)
	switch {
	case !ok:
		writeAbandoned(w)
	case v.Err != "":
		http.Error(w, v.Err, http.StatusUnprocessableEntity)
	case !wantJSON:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(v.Text)
	case v.JSONErr != "":
		http.Error(w, v.JSONErr, http.StatusInternalServerError)
	default:
		writeJSONBytes(w, v.JSON)
	}
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
	refreshes, fullRescans, rebuilds, refreshErrors := s.refreshes, s.fullRescans, s.worldRebuilds, s.refreshErrors
	lastScanned, lastDur, stages := s.lastScanned, s.lastRefreshDur, s.lastStages
	s.mu.RUnlock()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := map[string]any{
		"started":        s.started.UTC(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"pending":        cur == nil,
		"refreshes":      refreshes,
		"full_rescans":   fullRescans,
		"world_rebuilds": rebuilds,
		"refresh_errors": refreshErrors,
		"last_refresh": map[string]any{
			"partitions_merged": lastScanned,
			"duration_seconds":  lastDur.Seconds(),
			"reload_ms":         ms(stages.reload),
			"refresh_ms":        ms(stages.refresh),
			"swap_ms":           ms(stages.swap),
		},
	}
	if cur != nil {
		st := cur.scan
		out["days"] = cur.days
		out["partitions"] = cur.partitions
		out["manifest_gen"] = cur.manifestGen
		out["snapshot_at"] = cur.publishedAt.UTC()
		out["snapshot_age_sec"] = time.Since(cur.publishedAt).Seconds()
		out["artifacts"] = len(cur.exps)
		out["scan"] = map[string]any{
			"scans":          st.Scans,
			"partitions":     st.Partitions,
			"records":        st.Records,
			"blocks_read":    st.BlocksRead,
			"blocks_skipped": st.BlocksSkipped,
			"bytes_read":     st.BytesRead,
		}
		if len(cur.quarantined) > 0 {
			out["degraded"] = true
			out["quarantined_days"] = cur.quarantined
		}
	}
	out["query"] = s.queryStats()
	if s.adm != nil {
		out["admission"] = s.adm.Stats()
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
// backlog, and ingest lag. Like /stats it answers from memory: no
// probe reads a file or waits on more than a counter copy.
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
		out["snapshot_age_sec"] = time.Since(cur.publishedAt).Seconds()
		if len(cur.quarantined) > 0 {
			// Still 200: the daemon is healthy, the data is declaredly
			// partial. Probes alert on the field, not the status code.
			out["status"] = "degraded"
			out["quarantined_days"] = cur.quarantined
		}
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
	store, err := openStore(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil // nothing to scrub yet (ingest-mode cold start)
	}
	if err != nil {
		return err
	}
	res, err := trace.Scrub(ctx, store)
	if err != nil {
		return fmt.Errorf("startup scrub: %w", err)
	}
	if res.Report.OK() {
		log.Printf("startup scrub: %d partitions clean", res.Report.Partitions)
		return nil
	}
	for _, p := range res.Quarantined {
		log.Printf("startup scrub: quarantined day %d shard %d", p.Day, p.Shard)
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
		adm: admission.NewController(admission.Config{})}
	if cfg.ingestOn {
		svc, err := ingest.Open(cfg.dir, ingest.Options{
			SyncEvery: cfg.walSync,
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
	// The query engine reads partitions through its own store handle —
	// FileStore is stateless, so one handle serves every generation; the
	// per-snapshot view pins which partitions a query may touch.
	qstore, err := openStore(cfg.dir)
	if err != nil {
		return fmt.Errorf("opening store for queries: %w", err)
	}
	s.eng = query.New(qstore)

	if err := s.refresh(ctx); err != nil {
		if !cfg.ingestOn {
			return err
		}
		// Serve 503s; the watch loop steps again on every poll and seal,
		// which brings the campaign live once POST /ingest/init lands.
		log.Printf("nothing to serve from %s yet (%v); waiting for ingest", cfg.dir, err)
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
