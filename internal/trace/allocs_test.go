//go:build !race

package trace

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// The steady-state scan loop must not allocate: after the first block
// warms the reusable buffers, decoding the next block into a ColumnBatch
// costs zero allocations per call.
// Gated off under -race (the detector instruments allocations).

func steadyStateAllocs(t *testing.T, data []byte, decode func(r *Reader) bool) float64 {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the reader's scratch buffers on the first few blocks.
	for i := 0; i < 4; i++ {
		if !decode(r) {
			t.Fatal("stream too short to warm up")
		}
	}
	return testing.AllocsPerRun(64, func() {
		if !decode(r) {
			t.Fatal("stream exhausted mid-measurement")
		}
	})
}

func TestColumnDecodeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	recs := make([]Record, 128*256)
	for i := range recs {
		recs[i] = randRecord(rng, StudyStart.UnixMilli())
	}
	var cb ColumnBatch
	allocs := steadyStateAllocs(t, encodeV3(t, recs, WriterV3Options{BlockRecords: 256}), func(r *Reader) bool {
		n, err := r.NextColumns(&cb)
		return err == nil && n > 0
	})
	if allocs > 0 {
		t.Fatalf("NextColumns allocates %.1f times per block in steady state, want 0", allocs)
	}
}

// The steady-state encode loop mirrors the decode contract: once the
// writer's pooled scratch (block buffer, payload, dictionary table) is
// warm, landing another block costs zero allocations.
func TestColumnEncodeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	recs := make([]Record, 256)
	for i := range recs {
		recs[i] = randRecord(rng, StudyStart.UnixMilli())
	}
	var cb ColumnBatch
	cb.FromRecords(recs)
	w, err := NewWriterV3(io.Discard, WriterV3Options{BlockRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // warm the scratch buffers
		if err := w.WriteColumns(&cb); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(64, func() {
		if err := w.WriteColumns(&cb); err != nil {
			t.Fatal(err)
		}
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Fatalf("WriteColumns allocates %.1f times per block in steady state, want 0", allocs)
	}
}

// TestScanSteadyStateBlockAllocs bounds the whole engine path: scanning
// a store with many blocks per partition must allocate O(partitions),
// not O(blocks) — the pooled batch buffers absorb the per-block cost.
func TestScanSteadyStateBlockAllocs(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	const blocksPerPart = 64
	w, err := fs.AppendPartition(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, blocksPerPart*DefaultBlockRecords)
	for i := range recs {
		recs[i] = randRecord(rng, StudyStart.UnixMilli())
	}
	if err := writeRecords(w, recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	scanOnce := func() {
		c := &columnSumCollector{}
		if err := Scan(context.Background(), fs, ScanOptions{Parallelism: 1}, c); err != nil {
			t.Fatal(err)
		}
		if c.total != int64(len(recs)) {
			t.Fatalf("scan saw %d records, want %d", c.total, len(recs))
		}
	}
	scanOnce() // warm the pools
	allocs := testing.AllocsPerRun(5, scanOnce)
	// One partition scan owns a fixed number of setup allocations
	// (goroutines, channels, iterator, reader buffers, one directory
	// entry per partition file); the bound
	// fails loudly if any per-block allocation sneaks back in
	// (64 blocks/run).
	const maxPerScan = 50
	if allocs > maxPerScan {
		t.Fatalf("steady-state scan allocates %.0f times per run over %d blocks, want <= %d (per-partition setup only)",
			allocs, blocksPerPart, maxPerScan)
	}
}

// TestOpenPartitionSteadyStateAllocs opens, drains and closes a
// one-block partition over and over: once the window pool is warm, an
// open must not allocate a read window. What an open still allocates
// (the file handle, path, iterator and decoder state) is a small fixed
// cost far below the partition's size, which is what a fresh window
// for it would take.
func TestOpenPartitionSteadyStateAllocs(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	recs := make([]Record, DefaultBlockRecords)
	for i := range recs {
		recs[i] = randRecord(rng, StudyStart.UnixMilli())
	}
	writePartition(t, fs, 0, 0, recs)
	st, err := os.Stat(fs.partitionPath(0, 0))
	if err != nil {
		t.Fatal(err)
	}

	var cb ColumnBatch
	openDrainClose := func() {
		it, err := fs.OpenPartition(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			rows += n
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if rows != len(recs) {
			t.Fatalf("drained %d rows, want %d", rows, len(recs))
		}
	}
	openDrainClose() // warm the window pool and the batch
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		openDrainClose()
	}
	runtime.ReadMemStats(&after)
	perOpen := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("partition %d bytes, %d bytes allocated per open", st.Size(), perOpen)
	if perOpen >= uint64(st.Size())/4 {
		t.Fatalf("a warm open allocates %d bytes, want well under the %d-byte partition (no read window)",
			perOpen, st.Size())
	}
}

// WriteDay's canonical sort and shard bucketing run on every generated
// day and every ingest seal; through a warm DayScratch neither
// allocates, tie runs included.
func TestWriteDaySortSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var cb ColumnBatch
	for i := 0; i < 20_000; i++ {
		rec := randRecord(rng, StudyStart.UnixMilli())
		if i > 0 && rng.Intn(5) == 0 {
			rec.Timestamp, rec.UE = cb.Timestamps[i-1], cb.UEs[i-1]
		}
		cb.AppendRecord(&rec)
	}
	var sc DayScratch
	sortAndBucket := func() {
		perm := cb.SortPermCanonical(&sc)
		sc.shardRows(&cb, perm, 4)
	}
	sortAndBucket()
	if allocs := testing.AllocsPerRun(10, sortAndBucket); allocs > 0 {
		t.Fatalf("canonical sort and shard bucketing allocate %.1f times per day through a warm scratch, want 0", allocs)
	}
}
