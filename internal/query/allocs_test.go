//go:build !race

package query

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"telcolens/internal/trace"
)

// TestQuerySteadyStateAllocs: a warm point-query miss decodes its
// partitions into trace.Scan's pooled column batches. Besides its
// answer (the Rows slice, counted at twice its capacity for the
// appends that grew it), what it allocates — match states, the scan's
// bookkeeping, the partition opens — must stay under a quarter of one
// decoded batch, about 32 B per record of a one-block partition. A
// per-query batch would cost the whole batch again on every miss.
// Gated off under -race (the detector instruments allocations).
func TestQuerySteadyStateAllocs(t *testing.T) {
	c := genCorpus(17, 4, 2, 8000) // one 4000-record block per partition
	fs := c.write(t, t.TempDir(), trace.FileStoreOptions{})
	eng := New(fs)
	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := Params{UE: ueID(uint32(c.recs[trace.Partition{Day: 0, Shard: 0}][0].UE))}
	miss := func() *Result {
		eng.InvalidateCache()
		res, hit, err := eng.Query(ctx, v, p)
		if err != nil || hit {
			t.Fatalf("query: hit=%v err=%v", hit, err)
		}
		return res
	}
	for i := 0; i < 4; i++ { // warm the batch pool and pin the index footers
		miss()
	}
	res := miss()
	if res.Metrics.PartitionsScanned == 0 || res.Metrics.BlocksDecoded != res.Metrics.PartitionsScanned {
		t.Fatalf("metrics %+v: want one decoded block per scanned partition", res.Metrics)
	}
	batch := uint64(32 * res.Metrics.RowsScanned / res.Metrics.PartitionsScanned)

	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		miss()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
	answer := uint64(2 * cap(res.Rows) * int(unsafe.Sizeof(Row{})))
	t.Logf("point-query miss: %d rows scanned over %d partitions, %d returned; %d B allocated per query, "+
		"%d B of them allowed for the answer; one decoded batch is %d B",
		res.Metrics.RowsScanned, res.Metrics.PartitionsScanned, len(res.Rows), perQuery, answer, batch)
	if perQuery > answer+batch/4 {
		t.Fatalf("a warm point-query miss allocates %d B beside its %d-B answer, want under a quarter of the %d-B decoded batch",
			perQuery-min(perQuery, answer), answer, batch)
	}
}
