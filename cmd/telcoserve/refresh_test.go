package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"telcolens"
	"telcolens/internal/query"
	"telcolens/internal/trace"
)

// appendDay extends the campaign in dir by one day the way telcogen
// -append does: partitions land (bumping the MANIFEST generation), then
// the campaign manifest is re-saved.
func appendDay(t *testing.T, dir string) {
	t.Helper()
	ds, err := telcolens.Load(dir)
	if err != nil {
		t.Error(err)
		return
	}
	if err := ds.GenerateDays(1); err != nil {
		t.Error(err)
		return
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Error(err)
	}
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
	store, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(3)
	cfg.UEs, cfg.Days, cfg.Districts, cfg.SitesTarget, cfg.Shards = 150, 2, 40, 200, 2
	cfg.Store = store
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Fatal(err)
	}

	s := &server{dir: dir, parallel: 2, started: time.Now(),
		nudge: make(chan struct{}, 1), eng: query.New(store)}
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.bootstrap(ctx); err != nil {
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
