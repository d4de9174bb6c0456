package analysis

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// The acceptance bar for the v2 engine: scanning a sharded store with a
// parallel worker pool must produce artifacts byte-identical to the
// sequential scan of the unsharded store for the same seed. Everything
// downstream of the scan (sampling, OLS, ANOVA, quantile regression) is
// deterministic given the scan state, so comparing rendered artifacts
// covers the full pipeline. Run with -race to double as the engine's
// concurrency check.

const (
	detSeed = 1234
	detUEs  = 1200
	detDays = 4
)

func detDataset(t *testing.T, shards int) *simulate.Dataset {
	t.Helper()
	return detFileDataset(t, shards, trace.FileStoreOptions{})
}

// renderAll runs every experiment and returns each rendered artifact.
func renderAll(t *testing.T, a *Analyzer) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(Experiments()))
	for _, e := range Experiments() {
		art, err := e.Run(context.Background(), a)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var buf bytes.Buffer
		if err := art.Render(&buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out[e.ID] = buf.Bytes()
	}
	return out
}

func TestParallelShardedScanByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two campaigns")
	}
	// Baseline: one shard per day, scanned sequentially.
	seq, err := New(detDataset(t, 1), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, seq)

	// Same seed, 4 shards per day, scanned by a 4+ worker pool.
	par, err := New(detDataset(t, 4), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, par)

	if len(got) != len(want) {
		t.Fatalf("artifact counts differ: %d vs %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Errorf("%s missing from sharded run", id)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: sharded+parallel artifact differs from sequential single-shard baseline\n--- sequential ---\n%s\n--- parallel ---\n%s",
				id, truncate(w), truncate(g))
		}
	}
}

func TestParallelismInvariantOnSameStore(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ds := detDataset(t, 8)
	base, err := New(ds, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, base)
	for _, par := range []int{2, 8} {
		a, err := New(ds, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		got := renderAll(t, a)
		for id, w := range want {
			if !bytes.Equal(got[id], w) {
				t.Errorf("parallelism=%d: %s differs from sequential scan of the same store", par, id)
			}
		}
	}
}

// TestRequireConcurrent hammers Require from many goroutines (the public
// entry points share one Analyzer), beside a RunEach whose experiments
// read the analyzer's options without its lock — meaningful mainly
// under -race.
func TestRequireConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	a, err := New(detDataset(t, 4), WithParallelism(4), WithWindow(0, detDays-1))
	if err != nil {
		t.Fatal(err)
	}
	needs := []Need{NeedTypes, NeedDurations, NeedUEDay, NeedSectorDay, NeedTemporal, NeedAll}
	var wg sync.WaitGroup
	for _, n := range needs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Require(context.Background(), n); err != nil {
				t.Error(err)
			}
			if got := a.windowDays(); got != detDays {
				t.Errorf("window spans %d days, want %d", got, detDays)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, o := range RunEach(context.Background(), a) {
			if o.Err != nil {
				t.Error(o.Err)
			}
		}
	}()
	wg.Wait()
}

func TestProgressReported(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	var mu sync.Mutex
	var last ProgressEvent
	events := 0
	a, err := New(detDataset(t, 4), WithParallelism(4), WithProgress(func(ev ProgressEvent) {
		mu.Lock()
		last = ev
		events++
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Require(context.Background(), NeedTypes); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if events != detDays*4 {
		t.Fatalf("saw %d progress events, want %d", events, detDays*4)
	}
	if last.Done != last.Total || last.Total != detDays*4 {
		t.Fatalf("final event %+v", last)
	}
}

func TestRequireCanceledContext(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	a, err := New(detDataset(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Require(ctx, NeedAll); err == nil {
		t.Fatal("canceled scan succeeded")
	}
}

func truncate(b []byte) []byte {
	const max = 2000
	if len(b) > max {
		return b[:max]
	}
	return b
}

// detFileDataset generates the detSeed campaign into a file store, so
// tests can pit shard counts and block sizes against each other.
func detFileDataset(t *testing.T, shards int, opts trace.FileStoreOptions) *simulate.Dataset {
	t.Helper()
	fs, err := trace.NewFileStoreOpts(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(detSeed)
	cfg.UEs = detUEs
	cfg.Days = detDays
	cfg.Shards = shards
	cfg.Store = fs
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// dumpArtifacts writes rendered artifacts under $TELCOLENS_ARTIFACT_DIR
// (set by the CI determinism job) so a failing comparison leaves both
// sides on disk for diffing.
func dumpArtifacts(t *testing.T, label string, arts map[string][]byte) {
	dir := os.Getenv("TELCOLENS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	sub := filepath.Join(dir, label)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Logf("artifact dump: %v", err)
		return
	}
	for id, b := range arts {
		if err := os.WriteFile(filepath.Join(sub, id+".txt"), b, 0o644); err != nil {
			t.Logf("artifact dump %s: %v", id, err)
		}
	}
	t.Logf("dumped %d artifacts to %s", len(arts), sub)
}

// compareArtifacts asserts got == want artifact-for-artifact, dumping
// both sides for offline diffing on mismatch.
func compareArtifacts(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: artifact counts differ: %d vs %d", label, len(got), len(want))
	}
	bad := false
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Errorf("%s: %s missing", label, id)
			bad = true
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s differs from baseline", label, id)
			bad = true
		}
	}
	if bad {
		dumpArtifacts(t, "baseline", want)
		dumpArtifacts(t, label, got)
	}
}

// TestCodecMatrixByteIdentical is the storage-layout acceptance bar: the
// same seed stored on one shard scanned sequentially or eight scanned in
// parallel, at several block sizes, must render every experiment
// byte-identically to the one-shard campaign at the default block size
// scanned sequentially.
func TestCodecMatrixByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("generates several campaigns")
	}
	baseline, err := New(detFileDataset(t, 1, trace.FileStoreOptions{}), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, baseline)

	variants := []struct {
		label  string
		shards int
		par    int
		opts   trace.FileStoreOptions
	}{
		{"v3-sequential", 1, 1, trace.FileStoreOptions{BlockRecords: 64}},
		{"v3-sharded-parallel", 8, 8, trace.FileStoreOptions{BlockRecords: 512}},
	}
	for _, v := range variants {
		t.Run(v.label, func(t *testing.T) {
			a, err := New(detFileDataset(t, v.shards, v.opts), WithParallelism(v.par))
			if err != nil {
				t.Fatal(err)
			}
			compareArtifacts(t, v.label, want, renderAll(t, a))
		})
	}
}

// recordFilterStore's iterators keep the window to themselves, so a
// windowed scan decodes every block and filters the decoded records.
type recordFilterStore struct{ *trace.FileStore }

func (s recordFilterStore) OpenPartition(day, shard int) (trace.RecordIterator, error) {
	it, err := s.FileStore.OpenPartition(day, shard)
	if err != nil {
		return nil, err
	}
	return &recordFilterIterator{RecordIterator: it}, nil
}

type recordFilterIterator struct {
	trace.RecordIterator
	hasRange     bool
	minTS, maxTS int64
}

func (it *recordFilterIterator) SetTimeRange(minTS, maxTS int64) {
	it.hasRange, it.minTS, it.maxTS = true, minTS, maxTS
}

func (it *recordFilterIterator) NextColumns(cb *trace.ColumnBatch) (int, error) {
	for {
		n, err := it.RecordIterator.NextColumns(cb)
		if err != nil || n == 0 || !it.hasRange {
			return n, err
		}
		if n = cb.FilterRange(it.minTS, it.maxTS); n > 0 {
			return n, nil
		}
	}
}

// TestWindowByteIdenticalAcrossCodecs: a day-windowed analysis must not
// depend on whether the window was enforced by block pruning or by
// filtering decoded records.
func TestWindowByteIdenticalAcrossCodecs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two campaigns")
	}
	lo, hi := 1, 2
	ds := detFileDataset(t, 1, trace.FileStoreOptions{})
	ds.Config.Store = recordFilterStore{ds.Config.Store.(*trace.FileStore)}
	filtered, err := New(ds, WithParallelism(1), WithWindow(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, filtered)
	a, err := New(detFileDataset(t, 8, trace.FileStoreOptions{BlockRecords: 256}),
		WithParallelism(8), WithWindow(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	compareArtifacts(t, fmt.Sprintf("window-%d-%d", lo, hi), want, renderAll(t, a))
}
