package main

import (
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"telcolens/internal/faultfs"
	"telcolens/internal/ingest"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// probe GETs target through h and decodes its JSON answer.
func probe(t *testing.T, h http.Handler, target string) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("GET %s body %q: %v", target, rec.Body.String(), err)
	}
	return out
}

// splitBatches cuts a day's records into batches of at most n rows.
func splitBatches(cb *trace.ColumnBatch, n int) []*trace.ColumnBatch {
	var out []*trace.ColumnBatch
	var rec trace.Record
	for i := 0; i < cb.Len(); i++ {
		if i%n == 0 {
			out = append(out, new(trace.ColumnBatch))
		}
		cb.Record(i, &rec)
		out[len(out)-1].AppendRecord(&rec)
	}
	return out
}

// TestProbesReadNoFile serves an ingest directory whose service routes
// every filesystem operation through a counting Fault. Once a day has
// sealed, Stats and the /healthz and /stats probes must leave the counts
// unchanged: they answer from memory, never from the MANIFEST. Only
// /ingest/stats reads it, and reports the store's generation. Probes
// then run beside the appends of the next day, for the race detector.
func TestProbesReadNoFile(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	generateServed(t, src, 3, 2, 0)
	meta, err := simulate.LoadMeta(src)
	if err != nil {
		t.Fatal(err)
	}
	ff := faultfs.NewFault(nil, faultfs.Plan{})
	svc, err := ingest.Open(dst, ingest.Options{FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	declared := *meta
	declared.Config.Days, declared.Config.WindowDays, declared.DayStats = 0, 2, nil
	if err := svc.Init(&declared); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 1, dayRecords(t, src, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.DayComplete(0, meta.DayStats[0]); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, dst, 2)
	s.ing = svc
	if err := s.refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := s.routes()

	before := ff.OpCounts()
	for i := 0; i < 3; i++ {
		if st := svc.Stats(); st.SealedDays != 1 || st.Seals != 1 {
			t.Fatalf("Stats: %d sealed days, %d seals, want 1 and 1", st.SealedDays, st.Seals)
		}
		for _, target := range []string{"/healthz", "/stats"} {
			iv, ok := probe(t, h, target)["ingest"].(map[string]any)
			if !ok || iv["sealed_days"] != 1.0 {
				t.Fatalf("%s ingest section = %v, want 1 sealed day", target, iv)
			}
		}
	}
	if after := ff.OpCounts(); !maps.Equal(before, after) {
		t.Fatalf("probes moved the service's filesystem counts from %v to %v", before, after)
	}

	store, err := trace.NewFileStore(dst)
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Gen == 0 {
		t.Fatal("a sealed day left the MANIFEST at generation 0")
	}
	if got := probe(t, h, "/ingest/stats")["manifest_gen"]; got != float64(m.Gen) {
		t.Fatalf("/ingest/stats manifest_gen = %v, want the store's %d", got, m.Gen)
	}

	// Day 1 streams in while probes poll.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, target := range []string{"/healthz", "/stats", "/ingest/stats", ""} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if target == "" {
					svc.Stats()
					continue
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s during appends: status %d", target, rec.Code)
					return
				}
			}
		}()
	}
	for i, b := range splitBatches(dayRecords(t, src, 1), 256) {
		if _, err := svc.Append(1, uint64(i+2), b); err != nil {
			t.Error(err)
			break
		}
	}
	if err := svc.DayComplete(1, meta.DayStats[1]); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	if st := svc.Stats(); st.SealedDays != 2 || st.MemtableRecords != 0 {
		t.Fatalf("after day 1: %d sealed days, %d memtable records, want 2 and 0", st.SealedDays, st.MemtableRecords)
	}
}

// quarantinedDays is the quarantined_days a probe's answer names.
func quarantinedDays(out map[string]any) []int {
	raw, _ := out["quarantined_days"].([]any)
	days := make([]int, len(raw))
	for i, d := range raw {
		days[i] = int(d.(float64))
	}
	return days
}

// TestDegradedModeProbes quarantines a partition with trace.Scrub and
// steps the daemon: /healthz must say "degraded" and both it and /stats
// name the day. The degraded days are those of the served generation:
// a scrub does not show before the step that loads it, and a quarantine
// log edited with no new MANIFEST generation changes no probe's answer
// until a step publishes a generation again.
func TestDegradedModeProbes(t *testing.T) {
	dir := t.TempDir()
	generateServed(t, dir, 3, 3, 4) // a declared window: the day appended below keeps the world
	ctx := context.Background()
	s := newTestServer(t, dir, 2)
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	h := s.routes()
	check := func(what, status string, want []int) {
		t.Helper()
		health, stats := probe(t, h, "/healthz"), probe(t, h, "/stats")
		if health["status"] != status {
			t.Fatalf("%s: /healthz status %v, want %s", what, health["status"], status)
		}
		if got := quarantinedDays(health); !slices.Equal(got, want) {
			t.Fatalf("%s: /healthz quarantined_days %v, want %v", what, got, want)
		}
		if got := quarantinedDays(stats); !slices.Equal(got, want) {
			t.Fatalf("%s: /stats quarantined_days %v, want %v", what, got, want)
		}
		if degraded := len(want) > 0; (stats["degraded"] == true) != degraded {
			t.Fatalf("%s: /stats degraded = %v, want %v", what, stats["degraded"], degraded)
		}
	}
	check("clean", "ok", []int{})

	path := filepath.Join(dir, "ho_day_001.tlho")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Scrub(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != (trace.Partition{Day: 1}) {
		t.Fatalf("scrub quarantined %v, want day 1 shard 0", res.Quarantined)
	}
	check("scrubbed, not stepped", "ok", []int{})
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	check("scrubbed and stepped", "degraded", []int{1})

	// Name day 0 too, behind the store's back: the MANIFEST generation
	// stays, so neither a probe nor a step that publishes nothing sees it.
	logPath := filepath.Join(dir, trace.QuarantineDirName, trace.QuarantineLogName)
	recs, err := trace.LoadQuarantine(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	edited := append(recs, trace.QuarantineRecord{File: "ho_day_000.tlho", Day: 0, Class: recs[0].Class, Error: "edited", Time: recs[0].Time})
	out, err := json.MarshalIndent(edited, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, out, 0o644); err != nil {
		t.Fatal(err)
	}
	check("log edited", "degraded", []int{1})
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	check("log edited, same generation stepped", "degraded", []int{1})

	appendDay(t, dir)
	if err := s.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if got := healthzDays(t, s); got != 4 {
		t.Fatalf("after the appended day /healthz shows %d days, want 4", got)
	}
	check("next generation", "degraded", []int{0, 1})
}
