package trace

import (
	"errors"
	"io"
	"testing"
)

// Record-granular test helpers over the columnar API.

// tempStore is an empty FileStore in a per-test directory.
func tempStore(t testing.TB) *FileStore {
	t.Helper()
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeRecords lands recs through w as one columnar batch.
func writeRecords(w RecordWriter, recs ...Record) error {
	var cb ColumnBatch
	cb.FromRecords(recs)
	return w.WriteColumns(&cb)
}

// writePartition lands recs into a fresh partition of s.
func writePartition(t testing.TB, s Store, day, shard int, recs []Record) {
	t.Helper()
	w, err := s.AppendPartition(day, shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRecords(w, recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// readRecords drains an iterator into a record slice.
func readRecords(it RecordIterator) ([]Record, error) {
	var out []Record
	var cb ColumnBatch
	for {
		n, err := it.NextColumns(&cb)
		if err != nil || n == 0 {
			return out, err
		}
		for i := 0; i < n; i++ {
			var rec Record
			cb.Record(i, &rec)
			out = append(out, rec)
		}
	}
}

// readerRecords drains a Reader, mapping its clean io.EOF to a nil error.
func readerRecords(r *Reader) ([]Record, error) {
	out, err := readRecords(eofIterator{r})
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return out, err
}

// eofIterator adapts a Reader to the RecordIterator surface; the Reader's
// end-of-stream io.EOF passes through for readerRecords to map.
type eofIterator struct{ *Reader }

func (eofIterator) Close() error { return nil }
