package ingest

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/faultfs"
	"telcolens/internal/simulate"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// testMeta is a minimal streaming campaign descriptor: no landed days,
// a declared growth window, and a world config the ingest path never
// has to instantiate.
func testMeta(windowDays int) *simulate.CampaignMeta {
	return &simulate.CampaignMeta{
		Config: simulate.Config{
			Seed:       7,
			Days:       0,
			WindowDays: windowDays,
			UEs:        10,
		},
	}
}

// mkBatch builds n deterministic records inside the given study day,
// varied by salt so distinct batches hold distinct rows.
func mkBatch(day, n, salt int) *trace.ColumnBatch {
	cb := new(trace.ColumnBatch)
	base := trace.DayStart(day).UnixMilli()
	var rec trace.Record
	for i := 0; i < n; i++ {
		k := i + salt*1000
		rec.Timestamp = base + int64(k%86_400_000)
		rec.UE = trace.UEID(k % 7)
		rec.TAC = devices.TAC(350000 + k%5)
		rec.Source = topology.SectorID(100 + k%13)
		rec.Target = topology.SectorID(200 + k%11)
		rec.Cause = causes.Code(k % 30)
		rec.SourceRAT = 1
		rec.TargetRAT = 2
		rec.Result = trace.Result(k % 2)
		rec.DurationMs = float32(k%500) / 10
		cb.AppendRecord(&rec)
	}
	return cb
}

func mustOpen(t *testing.T, dir string, opts Options) *Service {
	t.Helper()
	svc, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func TestAppendRequiresInit(t *testing.T) {
	svc := mustOpen(t, t.TempDir(), Options{})
	if _, err := svc.Append(1, 1, mkBatch(0, 5, 0)); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("append before init: %v", err)
	}
	if err := svc.Init(testMeta(2)); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Append(1, 1, mkBatch(0, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 5 || res.Pending != 5 {
		t.Fatalf("ack = %+v, want 5 accepted/pending", res)
	}
}

func TestInitIdempotentAndMismatch(t *testing.T) {
	svc := mustOpen(t, t.TempDir(), Options{})
	if err := svc.Init(testMeta(2)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Init(testMeta(2)); err != nil {
		t.Fatalf("idempotent re-init: %v", err)
	}
	other := testMeta(2)
	other.Config.Seed = 8
	if err := svc.Init(other); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("mismatched re-init: %v", err)
	}
}

func TestDuplicateBatchDroppedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, Options{})
	if err := svc.Init(testMeta(2)); err != nil {
		t.Fatal(err)
	}
	batch := mkBatch(0, 8, 3)
	if _, err := svc.Append(2, 5, batch); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Append(2, 5, batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Duplicate != 8 {
		t.Fatalf("same-process retry ack = %+v, want 8 duplicates", res)
	}
	svc.Close()

	svc2 := mustOpen(t, dir, Options{})
	if st := svc2.Stats(); st.MemtableRecords != 8 {
		t.Fatalf("recovered %d records, want 8", st.MemtableRecords)
	}
	res, err = svc2.Append(2, 5, batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Duplicate != 8 {
		t.Fatalf("post-restart retry ack = %+v, want 8 duplicates", res)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, Options{})
	if err := svc.Init(testMeta(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 1, mkBatch(0, 20, 0)); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// A crash mid-append leaves a partial frame at the tail.
	walPath := filepath.Join(dir, walDirName, "day_000.wal")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{frameBatch, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2 := mustOpen(t, dir, Options{})
	if st := svc2.Stats(); st.MemtableRecords != 20 {
		t.Fatalf("recovered %d records, want the 20 acknowledged", st.MemtableRecords)
	}
	// The truncated log must accept further appends and seal cleanly.
	if _, err := svc2.Append(1, 2, mkBatch(0, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc2.DayComplete(0, simulate.DayAggregate{}); err != nil {
		t.Fatal(err)
	}
	st := svc2.Stats()
	if st.SealedDays != 1 || st.MemtableRecords != 0 {
		t.Fatalf("post-seal stats = %+v", st)
	}
	n, err := trace.Count(mustStore(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("sealed %d records, want 30", n)
	}
}

func mustStore(t *testing.T, dir string) *trace.FileStore {
	t.Helper()
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestBackpressure(t *testing.T) {
	svc := mustOpen(t, t.TempDir(), Options{MaxPendingRecords: 10})
	if err := svc.Init(testMeta(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 1, mkBatch(0, 8, 0)); err != nil {
		t.Fatal(err)
	}
	var bp *BackpressureError
	if _, err := svc.Append(1, 2, mkBatch(0, 5, 1)); !errors.As(err, &bp) {
		t.Fatalf("over-budget append: %v", err)
	}
	if st := svc.Stats(); st.BackpressureRejects != 1 {
		t.Fatalf("rejects = %d, want 1", st.BackpressureRejects)
	}
	// Sealing drains the backlog and reopens the window.
	if err := svc.DayComplete(0, simulate.DayAggregate{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 3, mkBatch(1, 5, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestSealedDayRefusedAndCompleteIdempotent(t *testing.T) {
	svc := mustOpen(t, t.TempDir(), Options{})
	if err := svc.Init(testMeta(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 1, mkBatch(0, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.DayComplete(0, simulate.DayAggregate{}); err != nil {
		t.Fatal(err)
	}
	var sealed *DaySealedError
	if _, err := svc.Append(1, 2, mkBatch(0, 5, 1)); !errors.As(err, &sealed) {
		t.Fatalf("append to sealed day: %v", err)
	}
	if err := svc.DayComplete(0, simulate.DayAggregate{}); err != nil {
		t.Fatalf("re-complete sealed day: %v", err)
	}
}

func TestOutOfOrderDaysSealInOrder(t *testing.T) {
	svc := mustOpen(t, t.TempDir(), Options{})
	if err := svc.Init(testMeta(3)); err != nil {
		t.Fatal(err)
	}
	// One batch spanning two days plus an early day-2 batch.
	mixed := mkBatch(0, 5, 0)
	mixed.AppendColumns(mkBatch(1, 5, 0))
	if _, err := svc.Append(1, 1, mixed); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 2, mkBatch(2, 5, 0)); err != nil {
		t.Fatal(err)
	}
	// Completing day 1 first must not seal anything: day 0 is still open.
	if err := svc.DayComplete(1, simulate.DayAggregate{}); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SealedDays != 0 {
		t.Fatalf("sealed %d days before head completion", st.SealedDays)
	}
	// Completing day 0 seals days 0 and 1 together.
	if err := svc.DayComplete(0, simulate.DayAggregate{}); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.SealedDays != 2 {
		t.Fatalf("sealed %d days, want 2", st.SealedDays)
	}
	if len(st.PendingDays) != 1 || st.PendingDays[0] != 2 {
		t.Fatalf("pending days = %v, want [2]", st.PendingDays)
	}
	// Force-flush drains the tail.
	sealedDays, err := svc.Flush(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealedDays) != 1 || sealedDays[0] != 2 {
		t.Fatalf("force flush sealed %v, want [2]", sealedDays)
	}
}

func TestCrashMidSealRecoversToSameBytes(t *testing.T) {
	// Reference: the same stream sealed without interruption.
	want := t.TempDir()
	svc := mustOpen(t, want, Options{})
	if err := svc.Init(testMeta(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 1, mkBatch(0, 40, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 2, mkBatch(0, 40, 1)); err != nil {
		t.Fatal(err)
	}
	agg := simulate.DayAggregate{Handovers: 80, Failures: 3}
	if err := svc.DayComplete(0, agg); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// Crash scenario: same acknowledged stream (different batch split),
	// day-done marker durable, then a seal that died after writing a
	// partition but before committing the descriptor.
	got := t.TempDir()
	svc2 := mustOpen(t, got, Options{})
	if err := svc2.Init(testMeta(1)); err != nil {
		t.Fatal(err)
	}
	full := mkBatch(0, 40, 0)
	full.AppendColumns(mkBatch(0, 40, 1))
	if _, err := svc2.Append(3, 9, full); err != nil {
		t.Fatal(err)
	}
	svc2.Close()

	// Hand-write the day-done frame (the marker landed, the seal did not).
	walPath := filepath.Join(got, walDirName, "day_000.wal")
	f, _, err := openWALForAppend(faultfs.OS{}, walPath, fileSize(t, walPath))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4)
	binary.LittleEndian.PutUint32(payload, 0)
	aggJSON, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendFrame(f, frameDayDone, append(payload, aggJSON...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Partition debris from the died seal: wrong subset, wrong order.
	fs := mustStore(t, got)
	w, err := fs.AppendPartition(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteColumns(mkBatch(0, 7, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery must discard the debris and re-seal deterministically.
	svc3 := mustOpen(t, got, Options{})
	if st := svc3.Stats(); st.SealedDays != 1 || st.MemtableRecords != 0 {
		t.Fatalf("post-recovery stats = %+v, want day sealed", st)
	}
	compareCampaignDirs(t, want, got)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// compareCampaignDirs asserts two campaign directories carry the same
// partitions and descriptor, byte for byte. The store MANIFEST is
// excluded: its generation counter reflects write history, not content
// (the recorded partition digests are covered by the partition bytes).
func compareCampaignDirs(t *testing.T, want, got string) {
	t.Helper()
	read := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if name != "manifest.json" && !strings.HasSuffix(name, ".tlho") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = data
		}
		return out
	}
	wantFiles, gotFiles := read(want), read(got)
	for name, wantData := range wantFiles {
		gotData, ok := gotFiles[name]
		if !ok {
			t.Errorf("missing file %s", name)
			continue
		}
		if string(wantData) != string(gotData) {
			t.Errorf("%s differs: %d vs %d bytes", name, len(wantData), len(gotData))
		}
	}
	for name := range gotFiles {
		if _, ok := wantFiles[name]; !ok {
			t.Errorf("unexpected file %s", name)
		}
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, Stream: 4, Sleep: func(time.Duration) {}}

	// Uninitialized service: 503 until the descriptor arrives.
	cl.RetryFor = 1 // nanosecond budget: fail fast
	if _, err := cl.Send(context.Background(), mkBatch(0, 3, 0)); err == nil {
		t.Fatal("send before init succeeded")
	}
	cl.RetryFor = 0
	if err := cl.Init(context.Background(), testMeta(1)); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Send(context.Background(), mkBatch(0, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 6 {
		t.Fatalf("binary ack = %+v", res)
	}

	if err := cl.DayDone(context.Background(), 0, simulate.DayAggregate{Handovers: 6}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SealedDays != 1 || st.IngestedRecords != 6 {
		t.Fatalf("stats = %+v", st)
	}
	sealed, err := cl.Flush(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 0 {
		t.Fatalf("flush sealed %v, want nothing left", sealed)
	}
	n, err := trace.Count(mustStore(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("stored %d records, want 6", n)
	}
}
