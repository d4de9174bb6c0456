package query

import (
	"context"
	"math"
	"sync"
	"testing"

	"telcolens/internal/trace"
)

// hintlessStore serves a FileStore's partitions through iterators that
// ignore the projection and block-filter hints, as the RecordIterator
// contract allows. The embedded *trace.FileStore still answers
// PartitionIndex, so the engine keeps pruning with the index footers and
// hands block filters to iterators that then decode every block.
type hintlessStore struct{ *trace.FileStore }

func (s hintlessStore) OpenPartition(day, shard int) (trace.RecordIterator, error) {
	it, err := s.FileStore.OpenPartition(day, shard)
	if err != nil {
		return nil, err
	}
	return hintlessIterator{it}, nil
}

type hintlessIterator struct{ trace.RecordIterator }

func (hintlessIterator) SetProjection(trace.ColumnSet) {}
func (hintlessIterator) SetBlockFilter(func(int) bool) {}

// tsUE is the projected part of one scanned row.
type tsUE struct {
	ts int64
	ue trace.UEID
}

// rowCollector keeps the timestamp and UE of every row a scan observes,
// in merge order, reading no column outside its projection.
type rowCollector struct {
	mu   sync.Mutex
	rows []tsUE
}

type rowShard struct{ rows []tsUE }

func (c *rowCollector) NewShardState(day, shard int) trace.ShardState { return &rowShard{} }

func (s *rowShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	for i := range cb.Timestamps {
		s.rows = append(s.rows, tsUE{cb.Timestamps[i], cb.UEs[i]})
	}
	return nil
}

func (c *rowCollector) MergeShard(st trace.ShardState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows = append(c.rows, st.(*rowShard).rows...)
	return nil
}

// TestIgnoredHintsChangeNothing: projection and block filters are only
// hints. Over TestQueryMatchesScan's query shapes, the /query engine and
// trace.Scan return the same rows and scan state from a store whose
// iterators ignore both as from the plain FileStore, and both equal the
// brute-force ground truth.
func TestIgnoredHintsChangeNothing(t *testing.T) {
	c := genCorpus(29, 3, 2, 900)
	fs := c.write(t, t.TempDir(), trace.FileStoreOptions{BlockRecords: 64})
	hl := hintlessStore{fs}
	ctx := context.Background()
	plainView, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	hintlessView, err := NewView(hl)
	if err != nil {
		t.Fatal(err)
	}
	plain, hintless := New(fs), New(hl)

	var plainBlocks, hintlessBlocks int64
	for _, tc := range queryShapes(c) {
		t.Run(tc.name, func(t *testing.T) {
			want, wantTrunc := c.expected(tc.p)
			for _, q := range []struct {
				name   string
				eng    *Engine
				v      *View
				blocks *int64
			}{{"plain", plain, plainView, &plainBlocks}, {"hintless", hintless, hintlessView, &hintlessBlocks}} {
				res, _, err := q.eng.Query(ctx, q.v, tc.p)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				if got, w := mustJSON(t, res.Rows), mustJSON(t, want); got != w || res.Truncated != wantTrunc {
					t.Fatalf("%s: rows (truncated %v) differ from ground truth (truncated %v):\ngot  %s\nwant %s",
						q.name, res.Truncated, wantTrunc, got, w)
				}
				// A truncated query's counters depend on how far the
				// scan's workers got before the limit (see Metrics).
				if !res.Truncated {
					*q.blocks += res.Metrics.BlocksDecoded
				}
			}

			tr := trace.TimeRange{MinTS: math.MinInt64, MaxTS: math.MaxInt64}
			if tc.p.From != 0 {
				tr.MinTS = tc.p.From
			}
			if tc.p.To != 0 {
				tr.MaxTS = tc.p.To
			}
			var scanned [2]*rowCollector
			for i, s := range []trace.Store{fs, hl} {
				scanned[i] = &rowCollector{}
				opts := trace.ScanOptions{Parallelism: 2, Range: &tr, Projection: trace.ColUE}
				if err := trace.Scan(ctx, s, opts, scanned[i]); err != nil {
					t.Fatal(err)
				}
			}
			var truth []tsUE
			for day := 0; day < c.days; day++ {
				for sh := 0; sh < c.shards; sh++ {
					for _, rec := range c.recs[trace.Partition{Day: day, Shard: sh}] {
						if rec.Timestamp >= tr.MinTS && rec.Timestamp <= tr.MaxTS {
							truth = append(truth, tsUE{rec.Timestamp, rec.UE})
						}
					}
				}
			}
			for i, name := range []string{"plain", "hintless"} {
				got := scanned[i].rows
				if len(got) != len(truth) {
					t.Fatalf("%s scan observed %d rows, ground truth %d", name, len(got), len(truth))
				}
				for j := range got {
					if got[j] != truth[j] {
						t.Fatalf("%s scan row %d = %+v, ground truth %+v", name, j, got[j], truth[j])
					}
				}
			}
		})
	}
	// The filters were handed out and ignored: without them the same
	// queries decode more blocks.
	if hintlessBlocks <= plainBlocks {
		t.Fatalf("hintless iterators decoded %d blocks, the plain store %d: no block filter was exercised",
			hintlessBlocks, plainBlocks)
	}
}
