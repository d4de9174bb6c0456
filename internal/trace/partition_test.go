package trace

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func partitionRoundTrip(t *testing.T, s Store) {
	t.Helper()
	// Two days, three shards each.
	for day := 0; day < 2; day++ {
		for shard := 0; shard < 3; shard++ {
			recs := make([]Record, 10*(shard+1))
			for i := range recs {
				recs[i] = sampleRecord()
				recs[i].UE = UEID(shard*1000 + i)
			}
			writePartition(t, s, day, shard, recs)
		}
	}
	parts, err := s.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	want := []Partition{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if len(parts) != len(want) {
		t.Fatalf("partitions = %v", parts)
	}
	for i := range want {
		if parts[i] != want[i] {
			t.Fatalf("partitions[%d] = %v, want %v", i, parts[i], want[i])
		}
	}
	// Shard k of a day holds 10*(k+1) records of its own UEs.
	it, err := s.OpenPartition(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(it)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 30 || recs[0].UE != 2000 {
		t.Fatalf("day 0 shard 2: %d records starting at UE %d, want 30 from UE 2000", len(recs), recs[0].UE)
	}
	total, err := Count(s)
	if err != nil {
		t.Fatal(err)
	}
	if total != 120 {
		t.Fatalf("count = %d, want 120", total)
	}
	// Double-write and missing-partition rejection.
	if _, err := s.AppendPartition(0, 1); err == nil {
		t.Fatal("rewriting partition accepted")
	}
	if _, err := s.OpenPartition(0, 9); err == nil {
		t.Fatal("missing shard opened")
	}
}

func TestFileStorePartitions(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	partitionRoundTrip(t, fs)
}

func TestFileStoreStrictNameParsing(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.AppendPartition(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRecords(w, sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = fs.AppendPartition(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Droppings that the old Sscanf-based parser accepted as day 1.
	for _, name := range []string{
		"ho_day_001.tlho.tmp",
		"ho_day_001.tlho.bak",
		"ho_day_001.tlhoX",
		"ho_day_0010.tlho",
		"ho_day_01.tlho",
		"xho_day_001.tlho",
		"ho_day_001_s002.tlho.tmp",
		"ho_day_001_s0002.tlho",
		"ho_day_001_s000.tlho", // shard 0 is always the bare day file
		"census.csv",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	parts, err := fs.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0] != (Partition{1, 0}) || parts[1] != (Partition{1, 2}) {
		t.Fatalf("partitions = %v, want [{1 0} {1 2}]", parts)
	}
	// The directory listing (Verify's orphan check) parses as strictly.
	listed, err := fs.listPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 || listed[0] != (Partition{1, 0}) || listed[1] != (Partition{1, 2}) {
		t.Fatalf("listed = %v, want [{1 0} {1 2}]", listed)
	}
}

func TestParsePartitionName(t *testing.T) {
	cases := []struct {
		name string
		want Partition
		ok   bool
	}{
		{"ho_day_000.tlho", Partition{0, 0}, true},
		{"ho_day_027.tlho", Partition{27, 0}, true},
		{"ho_day_003_s001.tlho", Partition{3, 1}, true},
		{"ho_day_003_s127.tlho", Partition{3, 127}, true},
		{"ho_day_003_s000.tlho", Partition{}, false},
		{"ho_day_3.tlho", Partition{}, false},
		{"ho_day_003.tlho.tmp", Partition{}, false},
		{"ho_day_003_s01.tlho", Partition{}, false},
		{"", Partition{}, false},
	}
	for _, c := range cases {
		got, ok := parsePartitionName(c.name)
		if ok != c.ok || got != c.want {
			t.Errorf("parsePartitionName(%q) = %v, %v; want %v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestFileStoreShardRange(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.AppendPartition(0, -1); err == nil {
		t.Fatal("negative shard accepted")
	}
	if _, err := fs.AppendPartition(0, 1000); err == nil {
		t.Fatal("shard 1000 accepted")
	}
}

func TestForEachPropagatesCallbackError(t *testing.T) {
	s := buildShardedStore(t, 2, 10, 2)
	sentinel := errors.New("stop here")
	calls := 0
	err := ForEach(s, func(day int, rec *Record) error {
		calls++
		if calls == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 5 {
		t.Fatalf("callback ran %d times after error", calls)
	}
}

func TestForEachClosesIteratorsOnError(t *testing.T) {
	es := &errStore{FileStore: tempStore(t)}
	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = sampleRecord()
	}
	writePartition(t, es, 0, 0, recs)
	if err := ForEach(es, func(int, *Record) error { return nil }); err == nil {
		t.Fatal("iterator error not propagated")
	}
	if es.opened == 0 || es.opened != es.closed {
		t.Fatalf("iterator leak: opened %d, closed %d", es.opened, es.closed)
	}
}

// TestPartitionIteratorUseAfterClose reads a partition iterator after
// Close while another open drains a partition, possibly through the
// very window the closed iterator gave back. The closed iterator must
// fail without touching that window; under -race any access to it
// would be reported.
func TestPartitionIteratorUseAfterClose(t *testing.T) {
	fs, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{BlockRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 300)
	for i := range recs {
		recs[i] = sampleRecord()
		recs[i].UE = UEID(i)
		recs[i].Timestamp += int64(i)
	}
	writePartition(t, fs, 0, 0, recs)
	writePartition(t, fs, 1, 0, recs)

	it, err := fs.OpenPartition(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cb ColumnBatch
	if n, err := it.NextColumns(&cb); err != nil || n == 0 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error)
	go func() {
		other, err := fs.OpenPartition(1, 0)
		if err == nil {
			_, err = readRecords(other)
			other.Close()
		}
		done <- err
	}()
	var late ColumnBatch
	n, err := it.NextColumns(&late)
	if otherErr := <-done; otherErr != nil {
		t.Fatal(otherErr)
	}
	if n != 0 || !errors.Is(err, errIteratorClosed) {
		t.Fatalf("NextColumns after Close: n=%d err=%v, want errIteratorClosed", n, err)
	}
}
