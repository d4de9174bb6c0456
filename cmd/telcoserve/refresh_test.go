package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telcolens"
	"telcolens/internal/admission"
	"telcolens/internal/chaos"
	"telcolens/internal/faultfs"
	"telcolens/internal/ingest"
	"telcolens/internal/query"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
	"telcolens/internal/trace/tracetest"
)

// appendDay extends the campaign in dir by one day the way telcogen
// -append does: partitions land (bumping the MANIFEST generation), then
// GenerateDays re-saves the campaign manifest.
func appendDay(t *testing.T, dir string) {
	t.Helper()
	ds, err := telcolens.Load(dir)
	if err != nil {
		t.Error(err)
		return
	}
	if err := ds.GenerateDays(1); err != nil {
		t.Error(err)
	}
}

// generateServed batch-generates a small sharded campaign into dir and
// saves its manifest; window > days declares the window it grows to.
func generateServed(t *testing.T, dir string, seed uint64, days, window int) {
	t.Helper()
	store, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(seed)
	cfg.UEs, cfg.Days, cfg.WindowDays, cfg.Districts, cfg.SitesTarget, cfg.Shards = 150, days, window, 40, 200, 2
	cfg.Store = store
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Fatal(err)
	}
}

// newTestServer is a daemon over dir without admission control, ingest
// or a listener; tests step it by calling refresh, as the watch loop
// does.
func newTestServer(t *testing.T, dir string, parallel int) *server {
	t.Helper()
	store, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &server{dir: dir, parallel: parallel, started: time.Now(),
		nudge: make(chan struct{}, 1), eng: query.New(store)}
}

func healthzDays(t *testing.T, s *server) int {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var out struct {
		Days int `json:"days"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
	}
	return out.Days
}

// TestSealDuringRefreshBecomesVisible lands a day while a refresh is
// between loading the campaign and marking a generation served. The
// refresh must mark the generation it loaded, not the one the store has
// reached since, and wake the watch loop: the late day has to show on
// /healthz with no further seal and no poll tick (the interval here is
// an hour).
func TestSealDuringRefreshBecomesVisible(t *testing.T) {
	dir := t.TempDir()
	generateServed(t, dir, 3, 2, 0)

	s := newTestServer(t, dir, 2)
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if got := healthzDays(t, s); got != 2 {
		t.Fatalf("bootstrapped with %d days, want 2", got)
	}

	var once sync.Once
	s.afterLoad = func() { once.Do(func() { appendDay(t, dir) }) } // day 3 seals mid-refresh
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		s.watch(ctx, time.Hour)
	}()
	defer func() {
		cancel()
		<-watchDone
	}()

	appendDay(t, dir) // day 2 seals: the one seal the daemon is told about
	s.poke()

	deadline := time.Now().Add(30 * time.Second)
	for healthzDays(t, s) != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("/healthz stuck at %d days: the day sealed during the refresh was marked served without being loaded",
				healthzDays(t, s))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// servedArtifacts is every /artifacts/{id} answer, as "status body".
func servedArtifacts(t *testing.T, s *server) map[string]string {
	t.Helper()
	return servedAnswers(t, s, "")
}

// servedAnswers is every /artifacts/{id}+suffix answer, as "status body".
func servedAnswers(t *testing.T, s *server, suffix string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, e := range telcolens.Experiments() {
		rec := httptest.NewRecorder()
		s.handleArtifacts(rec, httptest.NewRequest(http.MethodGet, "/artifacts/"+e.ID+suffix, nil))
		out[e.ID] = fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
	}
	return out
}

// coldArtifacts is what the daemon must serve for the store in dir: a
// fresh Load and a cold analyzer, every experiment run one by one — the
// sequential render loop the experiment pool replaced — and shaped the
// way handleArtifacts answers (a failed experiment is a 422 carrying its
// error).
func coldArtifacts(t *testing.T, dir string) map[string]string {
	t.Helper()
	text, _ := coldAnswers(t, dir)
	return text
}

// coldAnswers is coldArtifacts as text and as ?format=json.
func coldAnswers(t *testing.T, dir string) (text, js map[string]string) {
	t.Helper()
	ds, err := telcolens.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := telcolens.NewAnalyzer(ds, telcolens.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	text, js = map[string]string{}, map[string]string{}
	for _, e := range telcolens.Experiments() {
		art, err := e.Run(context.Background(), a)
		if err != nil {
			text[e.ID] = fmt.Sprintf("%d %s\n", http.StatusUnprocessableEntity, err)
			js[e.ID] = text[e.ID]
			continue
		}
		var buf bytes.Buffer
		if err := art.Render(&buf); err != nil {
			t.Fatal(err)
		}
		text[e.ID] = fmt.Sprintf("%d %s", http.StatusOK, buf.Bytes())
		rec := httptest.NewRecorder()
		writeJSON(rec, art)
		js[e.ID] = fmt.Sprintf("%d %s", http.StatusOK, rec.Body.Bytes())
	}
	return text, js
}

// sameArtifacts fails the test at the first artifact that differs.
func sameArtifacts(t *testing.T, what string, want, got map[string]string) {
	t.Helper()
	for _, e := range telcolens.Experiments() {
		if want[e.ID] != got[e.ID] {
			t.Fatalf("%s: /artifacts/%s differs\nwant:\n%s\ngot:\n%s", what, e.ID, want[e.ID], got[e.ID])
		}
	}
}

// dayRecords reads one study day back out of a campaign, across shards.
func dayRecords(t *testing.T, dir string, day int) *trace.ColumnBatch {
	t.Helper()
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fs.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	out := new(trace.ColumnBatch)
	var cb trace.ColumnBatch
	for _, p := range parts {
		if p.Day != day {
			continue
		}
		it, err := fs.OpenPartition(p.Day, p.Shard)
		if err != nil {
			t.Fatal(err)
		}
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			out.AppendColumns(&cb)
		}
		it.Close()
	}
	return out
}

// TestVisibleDayServesItsArtifacts lands days while a refresh runs in
// another goroutine and polls /healthz. The refresh publishes the day's
// generation, and its artifacts render on request, so the moment
// /healthz shows the day every /artifacts/{id}, text and JSON, must
// answer with a cold report of the grown store, never with the previous
// day's bytes.
func TestVisibleDayServesItsArtifacts(t *testing.T) {
	const first, days = 2, 4
	dir := t.TempDir()
	generateServed(t, dir, 3, first, days) // a declared window: every refresh is in place
	ctx := context.Background()
	s := newTestServer(t, dir, 2)
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	for day := first; day < days; day++ {
		appendDay(t, dir)
		wantText, wantJSON := coldAnswers(t, dir)
		done := make(chan error, 1)
		go func() { done <- s.refresh(ctx) }()
		// A refresh may publish and return between a /healthz read and
		// the check for its return, so a returned refresh fails the test
		// only if /healthz still lacks the day after it.
		var refreshErr error
		returned := false
		for !returned && healthzDays(t, s) != day+1 {
			select {
			case refreshErr = <-done:
				returned = true
				if got := healthzDays(t, s); got != day+1 {
					t.Fatalf("day %d: the refresh returned (err %v) with /healthz at %d days", day, refreshErr, got)
				}
			default:
			}
		}
		sameArtifacts(t, fmt.Sprintf("day %d text", day), wantText, servedAnswers(t, s, ""))
		sameArtifacts(t, fmt.Sprintf("day %d json", day), wantJSON, servedAnswers(t, s, "?format=json"))
		if !returned {
			refreshErr = <-done
		}
		if refreshErr != nil {
			t.Fatal(refreshErr)
		}
	}
}

// blockingSnapshot is a snapshot whose experiments each count a run and
// block until release closes, then return an empty artifact.
func blockingSnapshot(runs *atomic.Int64, release chan struct{}) *snapshot {
	exps := telcolens.Experiments()
	for i := range exps {
		e := exps[i]
		exps[i].Run = func(context.Context, *telcolens.Analyzer) (*telcolens.Artifact, error) {
			runs.Add(1)
			<-release
			return &telcolens.Artifact{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef}, nil
		}
	}
	return &snapshot{exps: exps, arts: make([]artifactSlot, len(exps)), publishedAt: time.Now()}
}

// TestAbandonedArtifactWaitReturns: a request whose artifact is still
// rendering returns a 503 as soon as its context ends, through the
// route's admission, and releases its admission slot. The renders it
// abandoned are not kept: once they finish, the next request runs its
// experiment again and gets its bytes, and no goroutine is left behind.
func TestAbandonedArtifactWaitReturns(t *testing.T) {
	s := newQueryServer(t)
	s.adm = admission.NewController(admission.Config{})
	var runs atomic.Int64
	release := make(chan struct{})
	s.cur = blockingSnapshot(&runs, release)
	h := s.routes()
	baseline := runtime.NumGoroutine()
	for _, target := range []string{"/", "/artifacts", "/artifacts/fig8", "/artifacts/fig8?format=json"} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
		cancel()
		if took := time.Since(start); rec.Code != http.StatusServiceUnavailable || took > 5*time.Second {
			t.Fatalf("%s: %d after %s, want a prompt 503", target, rec.Code, took)
		}
	}
	if st := s.adm.Stats()["classes"].([]admission.LimiterStats)[admission.ClassArtifacts]; st.InFlight != 0 || st.Admitted != 4 {
		t.Fatalf("artifact admission after the abandoned waits: %+v", st)
	}
	if runs.Load() == 0 {
		t.Fatal("no render started")
	}

	// The abandoned renders finish; none of them is kept, so the next
	// request for fig8 runs it once more.
	close(release)
	i := s.cur.index("fig8")
	for deadline := time.Now().Add(5 * time.Second); ; {
		s.cur.arts[i].mu.Lock()
		idle := s.cur.arts[i].flight == nil
		s.cur.arts[i].mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the abandoned fig8 render never finished")
		}
		time.Sleep(time.Millisecond)
	}
	for i := range s.cur.arts {
		if v := s.cur.arts[i].view; v != nil {
			t.Fatalf("an abandoned render of %s was kept", v.ID)
		}
	}
	before := runs.Load()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/artifacts/fig8", nil))
	if rec.Code != http.StatusOK || runs.Load() != before+1 || !strings.HasPrefix(rec.Body.String(), "FIG8 — ") {
		t.Fatalf("fig8 after the abandoned renders: %d after %d more runs:\n%s", rec.Code, runs.Load()-before, rec.Body)
	}
	// A deadline's timer cancels the context from a goroutine of its
	// own, which may still be exiting, and the released renders exit on
	// their own: wait for the count to settle.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the abandoned waits, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countingRuns wraps every experiment of snap to count its runs by id.
func countingRuns(snap *snapshot) map[string]*atomic.Int64 {
	runs := map[string]*atomic.Int64{}
	for i := range snap.exps {
		n, run := new(atomic.Int64), snap.exps[i].Run
		runs[snap.exps[i].ID] = n
		snap.exps[i].Run = func(ctx context.Context, a *telcolens.Analyzer) (*telcolens.Artifact, error) {
			n.Add(1)
			return run(ctx, a)
		}
	}
	return runs
}

// TestFirstRequestsRunOnce: concurrent first requests for one artifact
// run its experiment once and all get the cold report's bytes; / then
// runs each other experiment once, and no later request runs any again.
func TestFirstRequestsRunOnce(t *testing.T) {
	dir := t.TempDir()
	generateServed(t, dir, 3, 2, 0)
	s := newTestServer(t, dir, 2)
	if err := s.refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := coldArtifacts(t, dir)
	runs := countingRuns(s.cur)

	const requests = 16
	got := make([]string, requests)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.handleArtifacts(rec, httptest.NewRequest(http.MethodGet, "/artifacts/fig8", nil))
			got[r] = fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
		}()
	}
	wg.Wait()
	for r := range got {
		if got[r] != want["fig8"] {
			t.Fatalf("request %d got\n%s\nwant\n%s", r, got[r], want["fig8"])
		}
	}
	for id, n := range runs {
		want := int64(0)
		if id == "fig8" {
			want = 1
		}
		if n.Load() != want {
			t.Fatalf("%d concurrent first requests for fig8 ran %s %d times", requests, id, n.Load())
		}
	}

	for _, target := range []string{"/", "/artifacts", "/"} {
		rec := httptest.NewRecorder()
		s.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", target, rec.Code)
		}
	}
	sameArtifacts(t, "after /", want, servedArtifacts(t, s))
	for id, n := range runs {
		if n.Load() != 1 {
			t.Fatalf("%s ran %d times, want once per generation", id, n.Load())
		}
	}
}

// TestGenerationRendersBesideRefresh renders a served generation — every
// artifact, through /, as text and as JSON — while the live analyzer it
// was taken from refreshes over a landed day and saves its checkpoint,
// three days in a row. Run under -race, it checks that the refresh writes
// nothing the generation reads; the bytes must be a cold report of the
// generation's store.
func TestGenerationRendersBesideRefresh(t *testing.T) {
	const first, days = 2, 5
	dir := t.TempDir()
	generateServed(t, dir, 3, first, days)
	ctx := context.Background()
	s := newTestServer(t, dir, 2)
	s.checkpoint = filepath.Join(t.TempDir(), "state.tlckpt")
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	for day := first; day < days; day++ {
		wantText, wantJSON := coldAnswers(t, dir)
		appendDay(t, dir)
		old := &server{cur: s.cur}
		var text, js map[string]string
		done := make(chan struct{})
		go func() {
			defer close(done)
			rec := httptest.NewRecorder()
			old.handleIndex(rec, httptest.NewRequest(http.MethodGet, "/", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("/ of the earlier generation: %d", rec.Code)
			}
			text, js = servedAnswers(t, old, ""), servedAnswers(t, old, "?format=json")
		}()
		if err := s.refresh(ctx); err != nil {
			t.Fatal(err)
		}
		<-done
		if s.fullRescans != 0 || s.cur == old.cur {
			t.Fatalf("day %d was not merged in place (%d full rescans)", day, s.fullRescans)
		}
		if _, err := os.Stat(s.checkpoint); err != nil {
			t.Fatalf("no checkpoint saved: %v", err)
		}
		sameArtifacts(t, fmt.Sprintf("day %d: earlier generation text", day), wantText, text)
		sameArtifacts(t, fmt.Sprintf("day %d: earlier generation json", day), wantJSON, js)
	}
	sameArtifacts(t, "refreshed", coldArtifacts(t, dir), servedArtifacts(t, s))
}

// TestInPlaceRefreshMatchesCold seals a campaign into a served ingest
// directory one day at a time. After every refresh — the kept world and
// the analyzer refreshed in place — each artifact must equal a cold
// analyzer over the same store. Regenerating the directory as another
// campaign with the same day count must rebuild the world and serve the
// new campaign's cold report.
func TestInPlaceRefreshMatchesCold(t *testing.T) {
	const days = 3
	src, dst := t.TempDir(), t.TempDir()
	generateServed(t, src, 3, days, 0)
	meta, err := simulate.LoadMeta(src)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ingest.Open(dst, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	declared := *meta
	declared.Config.Days, declared.Config.WindowDays, declared.DayStats = 0, days, nil
	if err := svc.Init(&declared); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	s := newTestServer(t, dst, 2)
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, "bootstrap", coldArtifacts(t, dst), servedArtifacts(t, s))
	for day := 0; day < days; day++ {
		if _, err := svc.Append(1, uint64(day+1), dayRecords(t, src, day)); err != nil {
			t.Fatal(err)
		}
		if err := svc.DayComplete(day, meta.DayStats[day]); err != nil {
			t.Fatal(err)
		}
		if err := s.refresh(ctx); err != nil {
			t.Fatal(err)
		}
		if got := healthzDays(t, s); got != day+1 {
			t.Fatalf("day %d sealed, /healthz shows %d days", day, got)
		}
		sameArtifacts(t, fmt.Sprintf("after day %d", day), coldArtifacts(t, dst), servedArtifacts(t, s))
	}
	if s.worldRebuilds != 0 || s.fullRescans != 0 {
		t.Fatalf("growth inside the declared window rebuilt the world %d times, rescanned %d times",
			s.worldRebuilds, s.fullRescans)
	}

	// The served directory becomes another campaign of the same length.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	generateServed(t, dst, 4, days, 0)
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if s.worldRebuilds != 1 {
		t.Fatalf("a regenerated campaign rebuilt the world %d times, want 1", s.worldRebuilds)
	}
	sameArtifacts(t, "regenerated", coldArtifacts(t, dst), servedArtifacts(t, s))
}

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRefusesV2Campaign: a campaign whose partitions are v2 — the format
// of campaigns written before v3 became the only one — is refused by
// name: an artifact request and a /query both fail with a 500 naming
// v2 and telcogen.
func TestRefusesV2Campaign(t *testing.T) {
	dir := t.TempDir()
	generateServed(t, dir, 3, 3, 0)
	stampV2(t, dir)
	s := newTestServer(t, dir, 2)
	if err := s.refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/artifacts/fig8", "/query?ue=3&format=csv"} {
		rec := get(t, s, target)
		if body := rec.Body.String(); rec.Code != http.StatusInternalServerError ||
			!strings.Contains(body, "v2") || !strings.Contains(body, "telcogen") {
			t.Fatalf("%s over v2 partitions answered %d, want a 500 naming v2 and telcogen:\n%s", target, rec.Code, body)
		}
	}
}

// stampV2 rewrites the header of every partition in dir to name v2.
func stampV2(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.tlho"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no partitions under %s: %v", dir, err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[4], data[5] = 2, 0
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInPlaceRefreshReadFaults fails each partition read of an in-place
// refresh in turn. The previous generation must keep serving: an
// artifact first requested after the failed refresh renders from it and
// must equal a cold report of the store before the appended day. The next
// fault-free refresh — one cold rescan — must serve exactly what a cold
// analyzer over the grown store renders.
func TestInPlaceRefreshReadFaults(t *testing.T) {
	// A declared window keeps the world across the appended day, so the
	// refresh under test is an in-place one.
	template := t.TempDir()
	generateServed(t, template, 3, 2, 3)
	ctx := context.Background()

	// served steps a server over a copy of the template, lands one more day, and
	// routes the kept campaign's store through fsys.
	served := func(t *testing.T, fsys faultfs.FS) (*server, string) {
		dir := copyDir(t, template)
		s := newTestServer(t, dir, 1)
		if err := s.refresh(ctx); err != nil {
			t.Fatal(err)
		}
		appendDay(t, dir)
		fstore, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		s.ds.Config.Store = fstore
		return s, dir
	}

	probe := faultfs.NewFault(nil, faultfs.Plan{})
	ps, pdir := served(t, probe)
	if err := ps.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if ps.fullRescans != 0 {
		t.Fatal("the probe refresh was not in place")
	}
	want := coldArtifacts(t, pdir)
	sameArtifacts(t, "probe", want, servedArtifacts(t, ps))
	before := coldArtifacts(t, template)

	fired := 0
	for _, rule := range chaos.FailPoints(map[faultfs.Op]int{faultfs.OpRead: probe.OpCounts()[faultfs.OpRead]}, 0) {
		rule.Path = "*.tlho"
		t.Run(rule.String(), func(t *testing.T) {
			ff := faultfs.NewFault(nil, faultfs.Plan{Rules: []faultfs.Rule{rule}})
			s, _ := served(t, ff)
			prev := s.cur
			err := s.refresh(ctx)
			if len(ff.Fired()) == 0 {
				// The refresh read fewer partition blocks than the rule
				// counts to: it must simply have succeeded.
				if err != nil {
					t.Fatal(err)
				}
				sameArtifacts(t, "unfaulted", want, servedArtifacts(t, s))
				return
			}
			fired++
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted refresh: err = %v, want the injected fault", err)
			}
			if s.cur != prev || s.live != nil {
				t.Fatal("a failed refresh swapped the snapshot or kept its analyzer")
			}
			sameArtifacts(t, "after the fault", before, servedArtifacts(t, s))
			if err := s.refresh(ctx); err != nil {
				t.Fatal(err)
			}
			if s.fullRescans != 1 {
				t.Fatalf("recovery took %d full rescans, want 1", s.fullRescans)
			}
			sameArtifacts(t, "recovered", want, servedArtifacts(t, s))
		})
	}
	if fired == 0 {
		t.Fatal("no rule hit a partition read")
	}
}

// statsOf decodes GET /stats.
func statsOf(t *testing.T, s *server) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("stats body %q: %v", rec.Body.String(), err)
	}
	return out
}

// TestStatsRefreshSection: /stats explains the last refresh stage by
// stage and counts the refreshes that rebuilt the world or rescanned.
func TestStatsRefreshSection(t *testing.T) {
	dir := t.TempDir()
	generateServed(t, dir, 3, 1, 2)
	ctx := context.Background()
	s := newTestServer(t, dir, 2)
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	appendDay(t, dir)
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	st := statsOf(t, s)
	if st["refreshes"] != 1.0 || st["full_rescans"] != 0.0 || st["world_rebuilds"] != 0.0 {
		t.Fatalf("refreshes/full_rescans/world_rebuilds = %v/%v/%v, want 1/0/0",
			st["refreshes"], st["full_rescans"], st["world_rebuilds"])
	}
	last, ok := st["last_refresh"].(map[string]any)
	if !ok {
		t.Fatalf("no last_refresh section: %v", st)
	}
	if last["partitions_merged"] != 2.0 {
		t.Fatalf("partitions_merged = %v, want the day's 2 shards", last["partitions_merged"])
	}
	var sum float64
	for _, stage := range []string{"reload_ms", "refresh_ms", "swap_ms"} {
		v, ok := last[stage].(float64)
		if !ok || v <= 0 {
			t.Fatalf("last_refresh.%s = %v", stage, last[stage])
		}
		sum += v
	}
	if total := last["duration_seconds"].(float64) * 1000; sum > total {
		t.Fatalf("stages sum to %.3f ms, more than the %.3f ms refresh", sum, total)
	}
	if scan, ok := st["scan"].(map[string]any); !ok || scan["partitions"] != 4.0 {
		t.Fatalf("scan section = %v, want 4 partitions read (2 cold + 2 merged)", st["scan"])
	}

	// Another campaign in the same directory: one world rebuild, one
	// cold rescan.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	generateServed(t, dir, 4, 2, 0)
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	st = statsOf(t, s)
	if st["refreshes"] != 2.0 || st["full_rescans"] != 1.0 || st["world_rebuilds"] != 1.0 {
		t.Fatalf("after regeneration refreshes/full_rescans/world_rebuilds = %v/%v/%v, want 2/1/1",
			st["refreshes"], st["full_rescans"], st["world_rebuilds"])
	}
}

// TestDaemonResumesCheckpoint steps a -checkpoint daemon through a
// sealed day, then starts a second one on the same directory and
// checkpoint: it must resume the file, scan only the day sealed since,
// and serve a cold report. A checkpoint the store has diverged from and
// a corrupt one must fall back to a cold scan with the same report. The
// clean step after a faulted in-place refresh, and the step over a
// world an appended day rebuilt, must serve it too — through the resume,
// not a cold rescan.
func TestDaemonResumesCheckpoint(t *testing.T) {
	const shards = 2
	ctx := context.Background()
	started := func(dir, ckpt string) *server {
		t.Helper()
		s := newTestServer(t, dir, 2)
		s.checkpoint = ckpt
		if err := s.refresh(ctx); err != nil {
			t.Fatal(err)
		}
		return s
	}
	mergedBy := func(s *server) float64 {
		t.Helper()
		return statsOf(t, s)["last_refresh"].(map[string]any)["partitions_merged"].(float64)
	}

	// Without a declared window an appended day rebuilds the world.
	grown := t.TempDir()
	generateServed(t, grown, 3, 2, 0)
	rebuilt := started(grown, filepath.Join(t.TempDir(), "state.tlckpt"))
	appendDay(t, grown)
	if err := rebuilt.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if rebuilt.worldRebuilds != 1 || rebuilt.fullRescans != 0 || mergedBy(rebuilt) != shards {
		t.Fatalf("over a rebuilt world: %d world rebuilds, %d full rescans, %v partitions merged, want 1, 0 and the new day's %d",
			rebuilt.worldRebuilds, rebuilt.fullRescans, mergedBy(rebuilt), shards)
	}
	sameArtifacts(t, "rebuilt world", coldArtifacts(t, grown), servedArtifacts(t, rebuilt))

	// A declared window keeps the world across every appended day, so
	// each refresh below is an in-place one or a resume.
	dir := t.TempDir()
	generateServed(t, dir, 3, 2, 8)
	ckpt := filepath.Join(t.TempDir(), "state.tlckpt")
	first := started(dir, ckpt)
	appendDay(t, dir)
	if err := first.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if first.fullRescans != 0 {
		t.Fatalf("the sealed day took %d full rescans, want an in-place refresh", first.fullRescans)
	}
	appendDay(t, dir) // day 3 lands while no daemon runs

	second := started(dir, ckpt)
	if got := mergedBy(second); got != shards {
		t.Fatalf("the resumed daemon merged %v partitions, want the new day's %d", got, shards)
	}
	if got := second.live.ScanStats().Partitions; got != shards {
		t.Fatalf("the resumed daemon scanned %d partitions, want the new day's %d", got, shards)
	}
	sameArtifacts(t, "resumed", coldArtifacts(t, dir), servedArtifacts(t, second))

	// Re-blocking the store changes every partition's fingerprint: the
	// checkpoint no longer describes it.
	if err := tracetest.Reblock(dir, 64); err != nil {
		t.Fatal(err)
	}
	want := coldArtifacts(t, dir)
	diverged := started(dir, ckpt)
	if got := mergedBy(diverged); got != 4*shards {
		t.Fatalf("over a diverged checkpoint the daemon merged %v partitions, want all %d", got, 4*shards)
	}
	sameArtifacts(t, "diverged checkpoint", want, servedArtifacts(t, diverged))

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := started(dir, ckpt)
	if got := mergedBy(corrupt); got != 4*shards {
		t.Fatalf("over a corrupt checkpoint the daemon merged %v partitions, want all %d", got, 4*shards)
	}
	sameArtifacts(t, "corrupt checkpoint", want, servedArtifacts(t, corrupt))

	// The first partition read of the next in-place refresh fails; the
	// step after it resumes the checkpoint the last publish saved.
	s := corrupt
	appendDay(t, dir)
	ff := faultfs.NewFault(nil, faultfs.Plan{Rules: []faultfs.Rule{
		{Op: faultfs.OpRead, Path: "*.tlho", Kind: faultfs.KindErr},
	}})
	fstore, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	s.ds.Config.Store = fstore
	if err := s.refresh(ctx); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("faulted refresh: err = %v, want the injected fault", err)
	}
	if s.live != nil {
		t.Fatal("a failed refresh kept its analyzer")
	}
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if s.fullRescans != 0 {
		t.Fatalf("recovery took %d full rescans, want a resume", s.fullRescans)
	}
	if got := mergedBy(s); got != shards {
		t.Fatalf("recovery merged %v partitions, want the new day's %d", got, shards)
	}
	sameArtifacts(t, "recovered", coldArtifacts(t, dir), servedArtifacts(t, s))
}

// TestPendingGoesLiveByStepping steps a daemon over an ingest directory
// that has no campaign descriptor yet. Steps fail quietly and the
// daemon answers 503 until a descriptor and a sealed day land; the next
// step then serves the cold report, counted as no refresh and no world
// rebuild.
func TestPendingGoesLiveByStepping(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	generateServed(t, src, 3, 1, 0)
	meta, err := simulate.LoadMeta(src)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ingest.Open(dst, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	s := newTestServer(t, dst, 2)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		if err := s.refresh(ctx); err == nil {
			t.Fatal("a step over a pending campaign succeeded")
		}
	}
	// The watch loop, stepping on a fast tick, keeps pending failures
	// out of refresh_errors. A failed step leaves no trace to wait on,
	// so the loop simply runs for a fixed span of some fifty ticks.
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		s.watch(ctx, time.Millisecond)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	<-watchDone

	rec := httptest.NewRecorder()
	s.handleArtifacts(rec, httptest.NewRequest(http.MethodGet, "/artifacts", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pending /artifacts: status %d", rec.Code)
	}
	st := statsOf(t, s)
	if st["pending"] != true || st["refresh_errors"] != 0.0 {
		t.Fatalf("pending/refresh_errors = %v/%v, want true/0", st["pending"], st["refresh_errors"])
	}

	declared := *meta
	declared.Config.Days, declared.Config.WindowDays, declared.DayStats = 0, 1, nil
	if err := svc.Init(&declared); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 1, dayRecords(t, src, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.DayComplete(0, meta.DayStats[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := healthzDays(t, s); got != 1 {
		t.Fatalf("live daemon shows %d days, want 1", got)
	}
	sameArtifacts(t, "live", coldArtifacts(t, dst), servedArtifacts(t, s))
	st = statsOf(t, s)
	if st["refreshes"] != 0.0 || st["world_rebuilds"] != 0.0 {
		t.Fatalf("refreshes/world_rebuilds = %v/%v, want 0/0", st["refreshes"], st["world_rebuilds"])
	}
}

// TestRunMissingDataDir: without -ingest a missing data directory is an
// error, and the daemon leaves it missing.
func TestRunMissingDataDir(t *testing.T) {
	for _, scrub := range []bool{false, true} {
		missing := filepath.Join(t.TempDir(), "no", "such", "dir")
		if err := run(serveConfig{dir: missing, addr: "127.0.0.1:0", scrub: scrub}); err == nil {
			t.Fatalf("scrub %v: serving a missing directory succeeded", scrub)
		}
		if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("scrub %v: the missing data directory now exists (stat: %v)", scrub, err)
		}
	}
}
