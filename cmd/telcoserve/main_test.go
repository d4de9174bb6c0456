package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"telcolens/internal/query"
	"telcolens/internal/trace"
)

// writeRecords lands recs through w as one columnar batch.
func writeRecords(w trace.RecordWriter, recs []trace.Record) error {
	var cb trace.ColumnBatch
	cb.FromRecords(recs)
	return w.WriteColumns(&cb)
}

// newQueryServer builds a server around a small on-disk store, with a
// snapshot that carries only the pinned query view (no artifacts — the
// /query path never touches them).
func newQueryServer(t *testing.T) *server {
	t.Helper()
	fs, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := trace.DayStart(0).UnixMilli()
	recs := make([]trace.Record, 50)
	for i := range recs {
		recs[i] = trace.Record{
			Timestamp: base + int64(i)*60_000,
			UE:        trace.UEID(i % 5),
			TAC:       35000001,
			Source:    1,
			Target:    2,
			Result:    trace.Success,
		}
	}
	w, err := fs.AppendPartition(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRecords(w, recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	qv, err := query.NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	return &server{
		started: time.Now(),
		nudge:   make(chan struct{}, 1),
		eng:     query.New(fs),
		cur:     &snapshot{qview: qv, publishedAt: time.Now()},
	}
}

func get(t *testing.T, s *server, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func TestHandleQuery(t *testing.T) {
	s := newQueryServer(t)

	rec := get(t, s, "/query?ue=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q on first query", got)
	}
	if rec.Header().Get("X-Manifest-Gen") == "" {
		t.Fatal("missing X-Manifest-Gen header")
	}
	var res query.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("ue=3 returned %d rows, want 10", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.UE != 3 {
			t.Fatalf("row for ue %d leaked into ue=3 slice", r.UE)
		}
	}

	if rec = get(t, s, "/query?ue=3"); rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q on repeat query", rec.Header().Get("X-Cache"))
	}

	rec = get(t, s, "/query?ue=3&format=csv")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("csv Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 11 || !strings.HasPrefix(lines[0], "ts,ue,tac") {
		t.Fatalf("csv body has %d lines, first %q", len(lines), lines[0])
	}

	if rec = get(t, s, "/query?ue=notanumber"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad ue: status %d", rec.Code)
	}
	if rec = get(t, s, "/query?from=10&to=5"); rec.Code != http.StatusBadRequest {
		t.Fatalf("inverted window: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d", rec.Code)
	}

	// A pending server (no snapshot yet) must 503, not crash.
	pending := &server{started: time.Now(), eng: s.eng}
	if rec = get(t, pending, "/query?ue=1"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pending server: status %d", rec.Code)
	}
}

// An inverted window is the client's mistake: 400, and nothing reaches
// the result cache or the served counters.
func TestQueryInvertedWindowIs400(t *testing.T) {
	s := newQueryServer(t)
	for _, target := range []string{"/query?from=day:13&to=day:6", "/query?ue=1&from=10&to=5"} {
		rec := get(t, s, target)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), "after to") {
			t.Fatalf("%s: body %q does not name the inverted window", target, rec.Body.String())
		}
	}
	if cs := s.eng.CacheStats(); cs.Entries != 0 || cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("a rejected query touched the cache: %+v", cs)
	}
	if s.queries != 0 {
		t.Fatalf("%d rejected queries counted as served", s.queries)
	}
}

// TestQueryBodyHitMissIdentical asserts a cache hit serves the same
// bytes as the miss that filled it, those bytes are what json.Encoder
// with SetIndent("", " ") writes for the result, and Content-Length
// matches the body.
func TestQueryBodyHitMissIdentical(t *testing.T) {
	s := newQueryServer(t)
	for _, target := range []string{
		"/query?ue=3",
		"/query?ue=3&agg=1",
		"/query?tac=35000001&limit=7",
		"/query?day=0&agg=1",
		"/query?ue=99",
		"/query?sector=2&noindex=1&limit=3&agg",
	} {
		miss, hit := get(t, s, target), get(t, s, target)
		if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "miss" || hit.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s: status %d, X-Cache %q then %q", target, miss.Code,
				miss.Header().Get("X-Cache"), hit.Header().Get("X-Cache"))
		}
		if !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
			t.Fatalf("%s: hit body differs from miss body\nmiss: %s\nhit:  %s", target, miss.Body, hit.Body)
		}
		for _, rec := range []*httptest.ResponseRecorder{miss, hit} {
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("%s: Content-Length %q for a %d-byte body", target, cl, rec.Body.Len())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s: Content-Type %q", target, ct)
			}
		}
		p, _, err := parseQueryParams(httptest.NewRequest(http.MethodGet, target, nil).URL.Query())
		if err != nil {
			t.Fatal(err)
		}
		res := s.eng.Cached(s.cur.qview, p)
		if res == nil {
			t.Fatalf("%s: result not cached", target)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(miss.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s: body differs from json.Encoder\n got: %s\nwant: %s", target, miss.Body, want.Bytes())
		}
	}
}

// TestQueryCacheSwapRace hammers /query while a writer repeatedly
// lands new days and swaps snapshots (the refresh path: new view, swap
// s.cur, InvalidateCache). The invariant under -race: every response's
// generation is at least the generation published before the request
// started — a swap never leaves a stale cached result reachable — and
// the row count always matches the generation the response claims.
func TestQueryCacheSwapRace(t *testing.T) {
	dir := t.TempDir()
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each day contributes 10 rows to ue=3 (50 records, UE = i%5).
	writeDay := func(day int) {
		t.Helper()
		base := trace.DayStart(day).UnixMilli()
		recs := make([]trace.Record, 50)
		for i := range recs {
			recs[i] = trace.Record{
				Timestamp: base + int64(i)*60_000,
				UE:        trace.UEID(i % 5),
				TAC:       35000001,
				Source:    1,
				Target:    2,
				Result:    trace.Success,
			}
		}
		w, err := fs.AppendPartition(day, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeRecords(w, recs); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeDay(0)
	qv, err := query.NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{
		started: time.Now(),
		nudge:   make(chan struct{}, 1),
		eng:     query.New(fs),
		cur:     &snapshot{qview: qv, publishedAt: time.Now()},
	}

	// rowsAt maps a published generation to the ue=3 row count any
	// response claiming that generation must carry; published is the
	// newest generation visible to requests that start now.
	var pub struct {
		sync.Mutex
		rowsAt    map[uint64]int
		published uint64
	}
	pub.rowsAt = map[uint64]int{qv.Gen: 10}
	pub.published = qv.Gen

	const swaps = 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the refresh path
		defer wg.Done()
		for day := 1; day <= swaps; day++ {
			writeDay(day)
			nv, err := query.NewView(fs)
			if err != nil {
				t.Error(err)
				return
			}
			pub.Lock()
			pub.rowsAt[nv.Gen] = 10 * (day + 1)
			pub.Unlock()
			s.mu.Lock()
			s.cur = &snapshot{qview: nv, publishedAt: time.Now(), manifestGen: nv.Gen}
			s.eng.InvalidateCache()
			s.mu.Unlock()
			pub.Lock()
			pub.published = nv.Gen
			pub.Unlock()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pub.Lock()
				floor := pub.published
				done := len(pub.rowsAt) > swaps
				pub.Unlock()
				rec := httptest.NewRecorder()
				s.handleQuery(rec, httptest.NewRequest(http.MethodGet, "/query?ue=3&limit=100000", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("query status %d: %s", rec.Code, rec.Body.String())
					return
				}
				gen, err := strconv.ParseUint(rec.Header().Get("X-Manifest-Gen"), 10, 64)
				if err != nil {
					t.Errorf("bad X-Manifest-Gen: %v", err)
					return
				}
				if gen < floor {
					t.Errorf("served generation %d, but %d was already published before the request", gen, floor)
					return
				}
				var res query.Result
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					t.Error(err)
					return
				}
				pub.Lock()
				want, known := pub.rowsAt[gen]
				pub.Unlock()
				if !known {
					t.Errorf("response claims unpublished generation %d", gen)
					return
				}
				if len(res.Rows) != want {
					t.Errorf("generation %d served %d rows, want %d (stale cache?)", gen, len(res.Rows), want)
					return
				}
				if done {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStatsQuerySection asserts /stats surfaces the per-query and
// cumulative prune counters that queries accumulate.
func TestStatsQuerySection(t *testing.T) {
	s := newQueryServer(t)
	if rec := get(t, s, "/query?ue=2&noindex=1"); rec.Code != http.StatusOK {
		t.Fatalf("query failed: %d", rec.Code)
	}
	if rec := get(t, s, "/query?ue=2&noindex=1"); rec.Code != http.StatusOK { // cache hit
		t.Fatalf("repeat query failed: %d", rec.Code)
	}

	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	q, ok := out["query"].(map[string]any)
	if !ok {
		t.Fatalf("no query section in /stats: %v", out)
	}
	if q["served"].(float64) != 2 || q["cache_hits"].(float64) != 1 {
		t.Fatalf("served/cache_hits = %v/%v, want 2/1", q["served"], q["cache_hits"])
	}
	last, ok := q["last_query"].(map[string]any)
	if !ok {
		t.Fatal("no last_query section")
	}
	if last["rows_scanned"].(float64) == 0 {
		t.Fatal("last_query.rows_scanned is zero after an uncached query")
	}
	if last["blocks_decoded"].(float64) == 0 {
		t.Fatal("last_query.blocks_decoded is zero after a noindex scan")
	}
	cache, ok := q["cache"].(map[string]any)
	if !ok || cache["hits"].(float64) != 1 {
		t.Fatalf("cache stats = %v", q["cache"])
	}
}
