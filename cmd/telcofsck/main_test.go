package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"telcolens"
	"telcolens/internal/trace"
	"telcolens/internal/trace/tracetest"
)

// TestBadDataDirFailsAndCreatesNothing: a -data that does not exist, or
// is not a directory, fails the audit (status 2) in both modes and
// leaves the file system as it was.
func TestBadDataDirFailsAndCreatesNothing(t *testing.T) {
	root := t.TempDir()
	file := filepath.Join(root, "file")
	if err := os.WriteFile(file, []byte("not a campaign"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{filepath.Join(root, "nonexist"), filepath.Join(root, "a", "b"), file} {
		for _, scrub := range []bool{false, true} {
			var out bytes.Buffer
			if clean, err := run(context.Background(), &out, dir, scrub, false); err == nil {
				t.Fatalf("%s (scrub=%v): clean=%v with no error, output:\n%s", dir, scrub, clean, out.String())
			}
		}
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "file" {
		t.Fatalf("audit changed the file system: %v", entries)
	}
	if data, err := os.ReadFile(file); err != nil || string(data) != "not a campaign" {
		t.Fatalf("audit touched %s: %q, %v", file, data, err)
	}
}

// TestEmptyDirAuditsClean: an existing empty directory is an empty store.
func TestEmptyDirAuditsClean(t *testing.T) {
	for _, scrub := range []bool{false, true} {
		var out bytes.Buffer
		clean, err := run(context.Background(), &out, t.TempDir(), scrub, false)
		if err != nil || !clean {
			t.Fatalf("scrub=%v: clean=%v err=%v", scrub, clean, err)
		}
		if !strings.Contains(out.String(), "0 partitions, 0 records") || !strings.Contains(out.String(), "clean") {
			t.Fatalf("scrub=%v: report:\n%s", scrub, out.String())
		}
	}
}

// TestMissingPartitionStatus: a MANIFEST entry whose file is gone makes
// a plain audit unclean (status 1); -scrub drops the entry and exits
// clean, after which a plain audit is clean too.
func TestMissingPartitionStatus(t *testing.T) {
	dir := t.TempDir()
	store, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(7)
	cfg.UEs, cfg.Days = 50, 2
	cfg.Store = store
	if _, err := telcolens.Generate(cfg); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "ho_day_001.tlho")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var out bytes.Buffer
	if clean, err := run(ctx, &out, dir, false, false); err != nil || clean {
		t.Fatalf("audit: clean=%v err=%v, want an unclean report", clean, err)
	}
	if !strings.Contains(out.String(), "MISSING day 1 shard 0") {
		t.Fatalf("audit report:\n%s", out.String())
	}
	out.Reset()
	if clean, err := run(ctx, &out, dir, true, true); err != nil || !clean {
		t.Fatalf("scrub: clean=%v err=%v", clean, err)
	}
	if !strings.Contains(out.String(), `"entries_dropped"`) {
		t.Fatalf("scrub JSON report:\n%s", out.String())
	}
	out.Reset()
	if clean, err := run(ctx, &out, dir, false, false); err != nil || !clean {
		t.Fatalf("audit after scrub: clean=%v err=%v, report:\n%s", clean, err, out.String())
	}
}

// TestDamagedFooterScrubs: a partition whose index footer is damaged is
// a damaged partition. A plain audit reports it under a data class and
// is unclean (status 1); -scrub quarantines it and exits clean (status
// 0), after which a plain audit is clean too.
func TestDamagedFooterScrubs(t *testing.T) {
	dir := t.TempDir()
	store, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(7)
	cfg.UEs, cfg.Days = 50, 2
	cfg.Store = store
	if _, err := telcolens.Generate(cfg); err != nil {
		t.Fatal(err)
	}
	if err := tracetest.DamageFooter(filepath.Join(dir, "ho_day_001.tlho"), "byte-flipped"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var out bytes.Buffer
	if clean, err := run(ctx, &out, dir, false, false); err != nil || clean {
		t.Fatalf("audit: clean=%v err=%v, want an unclean report", clean, err)
	}
	if !strings.Contains(out.String(), "CORRUPT day 1 shard 0 [checksum]") {
		t.Fatalf("audit report:\n%s", out.String())
	}
	out.Reset()
	if clean, err := run(ctx, &out, dir, true, false); err != nil || !clean {
		t.Fatalf("scrub: clean=%v err=%v, report:\n%s", clean, err, out.String())
	}
	if !strings.Contains(out.String(), "quarantined day 1 shard 0") {
		t.Fatalf("scrub report:\n%s", out.String())
	}
	out.Reset()
	if clean, err := run(ctx, &out, dir, false, false); err != nil || !clean {
		t.Fatalf("audit after scrub: clean=%v err=%v, report:\n%s", clean, err, out.String())
	}
}
