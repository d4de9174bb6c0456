package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"telcolens"
	"telcolens/internal/trace"
)

// writeCampaign generates a small sharded campaign into a fresh
// directory, the way telcogen writes one, and returns the directory.
func writeCampaign(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	store, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(7)
	cfg.UEs, cfg.Days, cfg.Shards = 300, 3, 2
	cfg.Store = store
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runTo runs the command with args, writing its stdout to w, and
// returns its stderr.
func runTo(w *bytes.Buffer, args ...string) (string, error) {
	var stderr bytes.Buffer
	err := run(context.Background(), args, w, &stderr)
	return stderr.String(), err
}

func listIDs(t *testing.T) []string {
	t.Helper()
	var out bytes.Buffer
	if _, err := runTo(&out, "-list"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	return ids
}

func TestListPrintsEveryExperiment(t *testing.T) {
	ids := listIDs(t)
	if len(ids) != 30 {
		t.Fatalf("-list printed %d ids, want the paper's 30: %v", len(ids), ids)
	}
}

// TestExperimentsConcatenateToReport: one -exp run per id, in -list
// order, renders exactly the full report, and -out writes the same
// bytes as stdout.
func TestExperimentsConcatenateToReport(t *testing.T) {
	dir := writeCampaign(t)
	var full bytes.Buffer
	if stderr, err := runTo(&full, "-data", dir); err != nil {
		t.Fatalf("full report: %v\n%s", err, stderr)
	}
	var concat bytes.Buffer
	for _, id := range listIDs(t) {
		if stderr, err := runTo(&concat, "-data", dir, "-exp", id); err != nil {
			t.Fatalf("-exp %s: %v\n%s", id, err, stderr)
		}
	}
	if !bytes.Equal(concat.Bytes(), full.Bytes()) {
		t.Fatalf("concatenated -exp outputs (%d bytes) differ from the full report (%d bytes)",
			concat.Len(), full.Len())
	}

	outFile := filepath.Join(t.TempDir(), "report.txt")
	if stderr, err := runTo(new(bytes.Buffer), "-data", dir, "-out", outFile, "-parallel", "1"); err != nil {
		t.Fatalf("-out: %v\n%s", err, stderr)
	}
	written, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, full.Bytes()) {
		t.Fatalf("-out file (%d bytes) differs from stdout (%d bytes)", len(written), full.Len())
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	dir := writeCampaign(t)
	var out bytes.Buffer
	_, err := runTo(&out, "-data", dir, "-exp", "fig99")
	if err == nil || errors.Is(err, errUsage) {
		t.Fatalf("-exp fig99: err = %v, want an experiment error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("-exp fig99 wrote %d bytes of output", out.Len())
	}
}

var errDiskFull = errors.New("disk full")

// failLastWrite accepts every write except the one that would complete
// a report of total bytes: a disk that fills up on the final flush.
type failLastWrite struct {
	bytes.Buffer
	total int
}

func (w *failLastWrite) Write(p []byte) (int, error) {
	if w.Len()+len(p) >= w.total {
		return 0, errDiskFull
	}
	return w.Buffer.Write(p)
}

func TestShortWriteFails(t *testing.T) {
	dir := writeCampaign(t)
	var full bytes.Buffer
	if stderr, err := runTo(&full, "-data", dir); err != nil {
		t.Fatalf("full report: %v\n%s", err, stderr)
	}
	w := &failLastWrite{total: full.Len()}
	var stderr bytes.Buffer
	err := run(context.Background(), []string{"-data", dir}, w, &stderr)
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("report into a writer failing its last write: err = %v, want %v", err, errDiskFull)
	}
	if w.Len() >= full.Len() {
		t.Fatalf("writer holds %d of %d bytes; the last write should have failed", w.Len(), full.Len())
	}
}

func TestRejectsIgnoredInput(t *testing.T) {
	for _, args := range [][]string{
		{"./campaign"},
		{"-data", "campaign", "extra"},
		{"-from", "-5", "-to", "3"},
		{"-to", "-2"},
		{"-from", "5", "-to", "3"},
		{"-nosuchflag"},
	} {
		var out bytes.Buffer
		stderr, err := runTo(&out, args...)
		if !errors.Is(err, errUsage) {
			t.Errorf("%q: err = %v, want a usage error", args, err)
		}
		if !strings.Contains(stderr, "Usage of telcoreport") {
			t.Errorf("%q: stderr lacks the usage:\n%s", args, stderr)
		}
		if out.Len() != 0 {
			t.Errorf("%q: wrote %d bytes of output", args, out.Len())
		}
	}
}
