package analysis

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// The chunking-invariance property: for EVERY collector, folding a
// partition through ObserveColumns must produce the same state however
// the partition is cut into batches — one row per call (record-at-a-time
// granularity), odd chunk sizes straddling block boundaries, whole
// blocks, or the whole partition at once. That is what lets stores and
// codecs batch rows any way they like without changing a single
// published byte. The test drives the collectors by hand over the same
// generated partitions (in canonical order, like the engine) and
// compares the finalized views with reflect.DeepEqual, so any
// vectorization drift in a current or future collector fails here first.

// equivDataset is a small sharded campaign shared by the equivalence
// runs (fresh per call: collectors are single-use).
func equivDataset(t *testing.T) *simulate.Dataset {
	t.Helper()
	cfg := simulate.DefaultConfig(777)
	cfg.UEs = 800
	cfg.Days = 2
	cfg.Shards = 2
	cfg.Store = tempStore(t)
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// partitionBatch loads one partition into a single column batch.
func partitionBatch(t testing.TB, s trace.Store, p trace.Partition) *trace.ColumnBatch {
	t.Helper()
	it, err := s.OpenPartition(p.Day, p.Shard)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	out := new(trace.ColumnBatch)
	var cb trace.ColumnBatch
	for {
		n, err := it.NextColumns(&cb)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out.AppendColumns(&cb)
	}
}

// chunkBatch cuts all into consecutive batches of at most size rows.
func chunkBatch(all *trace.ColumnBatch, size int) []*trace.ColumnBatch {
	var out []*trace.ColumnBatch
	for off := 0; off < all.Len(); off += size {
		perm := make([]int32, 0, size)
		for i := off; i < min(off+size, all.Len()); i++ {
			perm = append(perm, int32(i))
		}
		cb := new(trace.ColumnBatch)
		cb.AppendGather(all, perm)
		out = append(out, cb)
	}
	return out
}

// foldCollector runs one collector over the dataset's partitions in
// canonical order, feeding each partition in batches of chunk rows (0 =
// the whole partition as one batch), and returns its finalized scan
// state.
func foldCollector(t *testing.T, ds *simulate.Dataset, need Need, chunk int) *scanState {
	t.Helper()
	env := newScanEnv(ds)
	col := collectorFor(need, env)
	parts, err := ds.Config.Store.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		all := partitionBatch(t, ds.Config.Store, p)
		batches := []*trace.ColumnBatch{all}
		if chunk > 0 {
			batches = chunkBatch(all, chunk)
		}
		state := col.NewShardState(p.Day, p.Shard)
		for _, cb := range batches {
			if err := state.ObserveColumns(p.Day, cb); err != nil {
				t.Fatal(err)
			}
		}
		if f, ok := state.(trace.PartitionFinisher); ok {
			if err := f.FinishPartition(); err != nil {
				t.Fatal(err)
			}
		}
		if err := col.MergeShard(state); err != nil {
			t.Fatal(err)
		}
	}
	out := &scanState{days: env.days, nUEs: env.nUEs, nSectors: env.nSectors, districts: env.nDistricts}
	if err := col.finalize(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCollectorBatchRecordEquivalence holds every collector to the
// chunking-invariance property; chunk 1 is the record-at-a-time leg.
func TestCollectorBatchRecordEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ds := equivDataset(t)
	needNames := map[Need]string{
		NeedTypes:     "types",
		NeedDurations: "durations",
		NeedCauses:    "causes",
		NeedTemporal:  "temporal",
		NeedDistricts: "districts",
		NeedUEDay:     "ueday",
		NeedSectorDay: "sectorday",
		NeedPingPong:  "pingpong",
	}
	for need := NeedTypes; need < needSentinel; need <<= 1 {
		name := needNames[need]
		if name == "" {
			name = fmt.Sprintf("need_%b", need)
		}
		t.Run(name, func(t *testing.T) {
			want := foldCollector(t, ds, need, 0)
			for _, chunk := range []int{1, 113, 4096} {
				got := foldCollector(t, ds, need, chunk)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("chunk %d: state differs from the whole-partition fold", chunk)
				}
			}
		})
	}
}

// TestBytesStoredReportsOnDiskBytes: the stored bytes a pass reports
// (ScanStats.BytesRead, which /stats and -v print) must be the trace's
// actual stored size up to each partition's index footer, which a scan
// does not read, not totalHOs×RecordSize — v3 blocks store fewer bytes
// than the fixed-width image.
func TestBytesStoredReportsOnDiskBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	t.Run("v3", func(t *testing.T) {
		fs, err := trace.NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := simulate.DefaultConfig(778)
		cfg.UEs = 600
		cfg.Days = 2
		cfg.Store = fs
		ds, err := simulate.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(ds)
		if err != nil {
			t.Fatal(err)
		}
		s, err := a.Require(context.Background(), NeedTypes)
		if err != nil {
			t.Fatal(err)
		}
		var onDisk int64
		entries, err := os.ReadDir(fs.Dir())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".tlho" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(fs.Dir(), e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			footer := binary.LittleEndian.Uint32(data[len(data)-trace.TrailerSize:])
			onDisk += int64(len(data)) - trace.TrailerSize - int64(footer)
		}
		stored := a.ScanStats().BytesRead
		if stored != onDisk {
			t.Fatalf("BytesRead = %d, want on-disk %d", stored, onDisk)
		}
		if rawEquivalent := s.totalHOs * trace.RecordSize; stored >= rawEquivalent {
			t.Fatalf("store reports %d stored bytes, not smaller than raw equivalent %d",
				stored, rawEquivalent)
		}
	})
}

// TestScanStatsExposed: the Analyzer accumulates scan metrics across
// Require passes and exposes them through ScanStats (what the CLI -v
// flags print).
func TestScanStatsExposed(t *testing.T) {
	if testing.Short() {
		t.Skip("generates campaigns")
	}
	fs, err := trace.NewFileStoreOpts(t.TempDir(), trace.FileStoreOptions{BlockRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(779)
	cfg.UEs = 600
	cfg.Days = 2
	cfg.Shards = 2
	cfg.Store = fs
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total, err := trace.Count(ds.Config.Store)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := ds.Config.Store.Partitions()
	if err != nil {
		t.Fatal(err)
	}

	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	if st := a.ScanStats(); st != (ScanStats{}) {
		t.Fatalf("fresh analyzer reports %+v", st)
	}
	if _, err := a.Require(context.Background(), NeedTypes); err != nil {
		t.Fatal(err)
	}
	st := a.ScanStats()
	if st.Scans != 1 || st.Records != total || st.Partitions != int64(len(parts)) {
		t.Fatalf("after one pass: %+v (want scans=1 records=%d partitions=%d)", st, total, len(parts))
	}
	if st.BlocksRead == 0 || st.BytesRead == 0 {
		t.Fatalf("file store reported no blocks/bytes: %+v", st)
	}
	// A second Require for a missing unit runs one more scan.
	if _, err := a.Require(context.Background(), NeedTemporal); err != nil {
		t.Fatal(err)
	}
	if st := a.ScanStats(); st.Scans != 2 {
		t.Fatalf("after two passes: %+v", st)
	}

	// A windowed analyzer over the same store prunes out-of-window blocks.
	win, err := New(ds, WithWindow(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := win.Require(context.Background(), NeedTypes); err != nil {
		t.Fatal(err)
	}
	if st := win.ScanStats(); st.BlocksSkipped == 0 {
		t.Fatalf("windowed scan pruned no blocks: %+v", st)
	}
}
