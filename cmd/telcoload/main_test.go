package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"telcolens"
	"telcolens/internal/ingest"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// TestReplayMatchesSource replays a generated campaign through run, on
// two streams without a rate limit, into an uninitialized ingest target:
// run must initialize it, and the partitions it seals must equal the
// source's byte for byte, index footers included, with the same
// per-day ground truth in the campaign descriptor.
func TestReplayMatchesSource(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	src, dst := t.TempDir(), t.TempDir()
	store, err := trace.NewFileStore(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(5)
	cfg.UEs, cfg.Days, cfg.Districts, cfg.SitesTarget, cfg.Shards = 400, 2, 40, 200, 2
	cfg.Store = store
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(src); err != nil {
		t.Fatal(err)
	}

	svc, err := ingest.Open(dst, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	if err := run(context.Background(), loadConfig{src: src, url: srv.URL, streams: 2, retryFor: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(src, "*.tlho"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != cfg.Days*cfg.Shards {
		t.Fatalf("source holds %d partition files, want %d", len(files), cfg.Days*cfg.Shards)
	}
	for _, f := range files {
		want, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dst, filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: replayed file differs from the source (%d vs %d bytes)", filepath.Base(f), len(got), len(want))
		}
	}
	replayed, err := filepath.Glob(filepath.Join(dst, "*.tlho"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range replayed {
		if _, err := os.Stat(filepath.Join(src, filepath.Base(f))); err != nil {
			t.Errorf("replay wrote %s, which the source does not hold", filepath.Base(f))
		}
	}

	srcMeta, err := simulate.LoadMeta(src)
	if err != nil {
		t.Fatal(err)
	}
	dstMeta, err := simulate.LoadMeta(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dstMeta.DayStats, srcMeta.DayStats) {
		t.Fatalf("replayed day stats %+v, source %+v", dstMeta.DayStats, srcMeta.DayStats)
	}
}
