package trace

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestColumnBatchFromRecordsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	recs := make([]Record, 300)
	for i := range recs {
		recs[i] = randRecord(r, StudyStart.UnixMilli())
	}
	var cb ColumnBatch
	cb.FromRecords(recs)
	if cb.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", cb.Len(), len(recs))
	}
	for i := range recs {
		var got Record
		cb.Record(i, &got)
		if got != recs[i] {
			t.Fatalf("row %d: got %+v, want %+v", i, got, recs[i])
		}
	}
	// Shrinking reuse must not leak stale rows.
	cb.FromRecords(recs[:10])
	if cb.Len() != 10 || len(cb.Durations) != 10 {
		t.Fatalf("after shrink: Len = %d, durations = %d", cb.Len(), len(cb.Durations))
	}
}

func TestColumnBatchFilterRange(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	base := StudyStart.UnixMilli()
	recs := make([]Record, 500)
	for i := range recs {
		recs[i] = randRecord(r, base)
	}
	lo, hi := base+3*3600*1000, base+9*3600*1000
	var cb ColumnBatch
	cb.FromRecords(recs)
	n := cb.FilterRange(lo, hi)

	var want []Record
	for _, rec := range recs {
		if rec.Timestamp >= lo && rec.Timestamp <= hi {
			want = append(want, rec)
		}
	}
	if n != len(want) {
		t.Fatalf("FilterRange kept %d rows, record filter kept %d", n, len(want))
	}
	for i := 0; i < n; i++ {
		var got Record
		cb.Record(i, &got)
		if got != want[i] {
			t.Fatalf("row %d after filter: got %+v, want %+v", i, got, want[i])
		}
	}
}

// TestReaderNextColumnsMatchesFullDecode: for every block size/range/
// projection combination, the SoA stream must hold exactly the in-range
// records, equal to the written ones on the projected fields.
func TestReaderNextColumnsMatchesFullDecode(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	base := StudyStart.UnixMilli()
	recs := make([]Record, 3000)
	for i := range recs {
		recs[i] = randRecord(r, base)
	}
	streams := map[string][]byte{
		"block256":  encodeV3(t, recs, WriterV3Options{BlockRecords: 256}),
		"block4096": encodeV3(t, recs, WriterV3Options{}),
	}
	ranges := []*TimeRange{nil, {MinTS: base + 2*3600*1000, MaxTS: base + 7*3600*1000}}
	projs := []ColumnSet{0, ColTimestamp, ColUE | ColOutcome, ColTAC | ColSectors | ColCause}
	for name, data := range streams {
		for ri, tr := range ranges {
			var want []Record
			for _, rec := range recs {
				if tr == nil || (rec.Timestamp >= tr.MinTS && rec.Timestamp <= tr.MaxTS) {
					rec.DurationMs = quantizeDuration(rec.DurationMs)
					want = append(want, rec)
				}
			}
			for _, proj := range projs {
				rd, err := NewReader(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				if tr != nil {
					rd.SetTimeRange(tr.MinTS, tr.MaxTS)
				}
				rd.SetProjection(proj)
				got, err := readerRecords(rd)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s range=%d proj=%b: %d records, want %d", name, ri, proj, len(got), len(want))
				}
				// Under a projection only the projected fields are
				// specified; compare those.
				for i := range want {
					if !recordsEqualUnder(proj, &got[i], &want[i]) {
						t.Fatalf("%s range=%d proj=%b row %d:\n got  %+v\n want %+v",
							name, ri, proj, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// recordsEqualUnder compares only the fields inside proj (timestamps
// always). A zero proj means every column.
func recordsEqualUnder(proj ColumnSet, a, b *Record) bool {
	if proj == 0 {
		proj = AllColumns
	}
	if a.Timestamp != b.Timestamp {
		return false
	}
	if proj&ColUE != 0 && a.UE != b.UE {
		return false
	}
	if proj&ColTAC != 0 && a.TAC != b.TAC {
		return false
	}
	if proj&ColSectors != 0 && (a.Source != b.Source || a.Target != b.Target) {
		return false
	}
	if proj&ColCause != 0 && a.Cause != b.Cause {
		return false
	}
	if proj&ColOutcome != 0 &&
		(a.SourceRAT != b.SourceRAT || a.TargetRAT != b.TargetRAT ||
			a.Result != b.Result || a.DurationMs != b.DurationMs) {
		return false
	}
	return true
}

// columnSumCollector accumulates order-free integer sums over every
// column, so scans that batch the same rows differently can be pitted
// against each other.
type columnSumCollector struct {
	mu    sync.Mutex
	total int64
	sum   uint64
}

type columnSumShard struct {
	total int64
	sum   uint64
}

func (s *columnSumShard) observeOne(day int, rec *Record) {
	s.total++
	s.sum += uint64(rec.Timestamp) + uint64(rec.UE)*3 + uint64(rec.TAC)*5 +
		uint64(rec.Source)*7 + uint64(rec.Target)*11 + uint64(rec.Cause)*13 +
		uint64(rec.SourceRAT)*17 + uint64(rec.TargetRAT)*19 +
		uint64(rec.Result)*23 + uint64(day)*29
}

func (s *columnSumShard) ObserveColumns(day int, cb *ColumnBatch) error {
	var rec Record
	for i := 0; i < cb.Len(); i++ {
		cb.Record(i, &rec)
		s.observeOne(day, &rec)
	}
	return nil
}

func (c *columnSumCollector) NewShardState(day, shard int) ShardState { return &columnSumShard{} }

func (c *columnSumCollector) MergeShard(st ShardState) error {
	s := st.(*columnSumShard)
	c.mu.Lock()
	c.total += s.total
	c.sum += s.sum
	c.mu.Unlock()
	return nil
}

// rowStore wraps a store so its iterators hand out one row per batch —
// record-at-a-time granularity — test each row against the time range
// themselves, and ignore the projection and block-filter hints.
type rowStore struct{ Store }

type rowIterator struct {
	inner        RecordIterator
	buf          ColumnBatch
	pos          int
	hasRange     bool
	minTS, maxTS int64
}

func (s rowStore) OpenPartition(day, shard int) (RecordIterator, error) {
	it, err := s.Store.OpenPartition(day, shard)
	if err != nil {
		return nil, err
	}
	return &rowIterator{inner: it}, nil
}

func (it *rowIterator) NextColumns(cb *ColumnBatch) (int, error) {
	for {
		if it.pos == it.buf.Len() {
			n, err := it.inner.NextColumns(&it.buf)
			if err != nil || n == 0 {
				return 0, err
			}
			it.pos = 0
		}
		ts := it.buf.Timestamps[it.pos]
		it.pos++
		if it.hasRange && (ts < it.minTS || ts > it.maxTS) {
			continue
		}
		cb.Reset()
		cb.appendRange(&it.buf, it.pos-1, it.pos)
		return 1, nil
	}
}

func (it *rowIterator) SetTimeRange(minTS, maxTS int64) {
	it.hasRange, it.minTS, it.maxTS = true, minTS, maxTS
}

func (it *rowIterator) SetProjection(ColumnSet)       {}
func (it *rowIterator) SetBlockFilter(func(int) bool) {}
func (it *rowIterator) ReadStats() BlockStats         { return BlockStats{} }
func (it *rowIterator) Close() error                  { return it.inner.Close() }

// TestScanColumnPathMatchesRecordPath: the native block-batched scan and
// a record-at-a-time scan (one-row batches, per-row range filtering)
// must observe the identical record multiset and report
// identical record metrics.
func TestScanColumnPathMatchesRecordPath(t *testing.T) {
	s := buildShardedStore(t, 3, 60, 4)
	run := func(store Store) (int64, uint64, int64) {
		var m ScanMetrics
		c := &columnSumCollector{}
		if err := Scan(context.Background(), store, ScanOptions{Parallelism: 4, Metrics: &m}, c); err != nil {
			t.Fatal(err)
		}
		return c.total, c.sum, m.Records.Load()
	}
	wantTotal, wantSum, wantRecs := run(rowStore{s})
	if wantTotal == 0 {
		t.Fatal("empty baseline")
	}
	if gotTotal, gotSum, gotRecs := run(s); gotTotal != wantTotal || gotSum != wantSum || gotRecs != wantRecs {
		t.Fatalf("batched: (%d, %d, %d), want (%d, %d, %d)",
			gotTotal, gotSum, gotRecs, wantTotal, wantSum, wantRecs)
	}
	// Windowed variant: block pruning and per-row filtering must agree.
	tr := DayRange(1, 1)
	c1 := &columnSumCollector{}
	if err := Scan(context.Background(), s, ScanOptions{Range: &tr}, c1); err != nil {
		t.Fatal(err)
	}
	c2 := &columnSumCollector{}
	if err := Scan(context.Background(), rowStore{s}, ScanOptions{Range: &tr}, c2); err != nil {
		t.Fatal(err)
	}
	if c1.total != c2.total || c1.sum != c2.sum || c1.total == 0 {
		t.Fatalf("windowed: batched (%d, %d) vs record (%d, %d)", c1.total, c1.sum, c2.total, c2.sum)
	}
}

// TestReaderBytesRead: a full decode of a stream must report exactly
// its stored size up to its index footer, which the block reader does
// not read, at every block size.
func TestReaderBytesRead(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	recs := make([]Record, 2500)
	for i := range recs {
		recs[i] = randRecord(r, StudyStart.UnixMilli())
	}
	// Time-ordered, as stored partitions are, so block descriptors carry
	// narrow time bounds the pruning check below can exercise.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Timestamp < recs[j].Timestamp })
	streams := map[string][]byte{
		"block512":  encodeV3(t, recs, WriterV3Options{BlockRecords: 512}),
		"block4096": encodeV3(t, recs, WriterV3Options{}),
	}
	for name, data := range streams {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := readerRecords(rd); err != nil {
			t.Fatal(err)
		}
		if got, want := rd.ReadStats().BytesRead, int64(blocksEnd(t, data)); got != want {
			t.Errorf("%s: BytesRead = %d, want the %d bytes before the index footer", name, got, want)
		}
	}
	// A range-pruned read must not count skipped block bytes.
	rd, err := NewReader(bytes.NewReader(streams["block512"]))
	if err != nil {
		t.Fatal(err)
	}
	base := StudyStart.UnixMilli()
	rd.SetTimeRange(base, base+3600*1000)
	var cb ColumnBatch
	for {
		if _, err := rd.NextColumns(&cb); err != nil {
			break
		}
	}
	st := rd.ReadStats()
	if st.BlocksSkipped == 0 {
		t.Fatal("narrow window pruned no blocks")
	}
	if st.BytesRead >= int64(len(streams["block512"])) {
		t.Fatalf("pruned read counted %d bytes of a %d-byte stream", st.BytesRead, len(streams["block512"]))
	}
}
