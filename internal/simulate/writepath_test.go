package simulate

import (
	"fmt"
	"testing"

	"telcolens/internal/trace"
)

// recordWriteStore wraps a store so its writers land every batch one
// row per WriteColumns call — record-at-a-time granularity.
type recordWriteStore struct{ trace.Store }

type recordWriteWriter struct{ inner trace.RecordWriter }

func (s recordWriteStore) AppendPartition(day, shard int) (trace.RecordWriter, error) {
	w, err := s.Store.AppendPartition(day, shard)
	if err != nil {
		return nil, err
	}
	return recordWriteWriter{w}, nil
}

func (w recordWriteWriter) WriteColumns(cb *trace.ColumnBatch) error {
	var row trace.ColumnBatch
	var rec trace.Record
	for i := 0; i < cb.Len(); i++ {
		cb.Record(i, &rec)
		row.Reset()
		row.AppendRecord(&rec)
		if err := w.inner.WriteColumns(&row); err != nil {
			return err
		}
	}
	return nil
}

func (w recordWriteWriter) Close() error { return w.inner.Close() }

// writePathConfig is the shared small campaign for the write-path
// identity property: big enough for multi-block partitions, small
// enough to generate repeatedly.
func writePathConfig(shards int, store trace.Store) Config {
	cfg := DefaultConfig(1234)
	cfg.UEs = 500
	cfg.Days = 2
	cfg.Districts = 50
	cfg.SitesTarget = 300
	cfg.Shards = shards
	cfg.Store = store
	return cfg
}

// TestColumnWritePathByteIdentical is the write-path determinism
// property: a campaign generated through the columnar write path
// (workers → ColumnBatch → WriteColumns) must land byte-identical
// partitions — equal manifest FNV fingerprints, byte counts and record
// counts — to the same campaign written one record per call, across
// shard counts.
func TestColumnWritePathByteIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		// The compress=false segment dates from when the store had a
		// compression option; it keeps subtest names stable.
		t.Run(fmt.Sprintf("file/shards=%d/compress=false", shards), func(t *testing.T) {
			colFS, err := trace.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			recFS, err := trace.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Generate(writePathConfig(shards, colFS)); err != nil {
				t.Fatal(err)
			}
			if _, err := Generate(writePathConfig(shards, recordWriteStore{recFS})); err != nil {
				t.Fatal(err)
			}
			compareManifests(t, colFS, recFS)
		})
	}
}

// compareManifests asserts two stores hold fingerprint-identical
// partitions.
func compareManifests(t *testing.T, a, b trace.Store) {
	t.Helper()
	ma, err := a.Manifest()
	if err != nil {
		t.Fatalf("column-path manifest: %v", err)
	}
	mb, err := b.Manifest()
	if err != nil {
		t.Fatalf("record-path manifest: %v", err)
	}
	if len(ma.Partitions) != len(mb.Partitions) {
		t.Fatalf("partition counts differ: %d vs %d", len(ma.Partitions), len(mb.Partitions))
	}
	for i := range ma.Partitions {
		pa, pb := ma.Partitions[i], mb.Partitions[i]
		if pa.Partition() != pb.Partition() || pa.Records != pb.Records ||
			pa.Bytes != pb.Bytes || pa.Fingerprint != pb.Fingerprint ||
			pa.MinTS != pb.MinTS || pa.MaxTS != pb.MaxTS {
			t.Fatalf("partition day %d shard %d differs between column and record write paths:\n  column: %+v\n  record: %+v",
				pa.Day, pa.Shard, pa, pb)
		}
	}
	if ma.TotalRecords() == 0 {
		t.Fatal("campaign generated no records — property is vacuous")
	}
}
