package trace

import (
	"math"
	"slices"

	"telcolens/internal/radix"
)

// Canonical day-stream ordering.
//
// A day partition stores its records sorted by timestamp. Timestamp
// alone is not a total order — a countrywide millisecond-granularity
// capture carries plenty of cross-UE ties — so producers that receive
// the same records in different orders (the batch generator's worker
// concatenation vs. a live ingest endpoint's arrival order) would seal
// different byte streams if ties broke on input position. CanonicalLess
// therefore extends the timestamp order with the full record content as
// a tie-break. The resulting order is total up to records that are
// identical in every field, and two identical records are
// indistinguishable in the encoded stream, so any producer that sorts
// the same multiset of records canonically lands a byte-identical
// partition — the invariant the streaming ingest path's crash-recovery
// and replay idempotence rest on.

// CanonicalLess reports whether row i of b orders before row j in the
// canonical day-stream order: timestamp first, then UE, source, target,
// packed RAT byte, result, cause, device TAC, and finally the duration's
// float32 bit pattern (a total order even for payloads that smuggle in
// NaNs; simulated durations are ordinary non-negative values).
func (b *ColumnBatch) CanonicalLess(i, j int) bool {
	if b.Timestamps[i] != b.Timestamps[j] {
		return b.Timestamps[i] < b.Timestamps[j]
	}
	if b.UEs[i] != b.UEs[j] {
		return b.UEs[i] < b.UEs[j]
	}
	if b.Sources[i] != b.Sources[j] {
		return b.Sources[i] < b.Sources[j]
	}
	if b.Targets[i] != b.Targets[j] {
		return b.Targets[i] < b.Targets[j]
	}
	if b.RATs[i] != b.RATs[j] {
		return b.RATs[i] < b.RATs[j]
	}
	if b.Results[i] != b.Results[j] {
		return b.Results[i] < b.Results[j]
	}
	if b.Causes[i] != b.Causes[j] {
		return b.Causes[i] < b.Causes[j]
	}
	if b.TACs[i] != b.TACs[j] {
		return b.TACs[i] < b.TACs[j]
	}
	return math.Float32bits(b.Durations[i]) < math.Float32bits(b.Durations[j])
}

// DayScratch is the memory WriteDay reuses from one day to the next:
// the canonical sort's radix keys and permutation, the per-shard row
// lists and the batch each shard's rows are gathered into. The zero
// value is ready to use; it grows to the largest day once. It is not
// safe for concurrent use.
type DayScratch struct {
	pairs   radix.Pairs
	buckets [][]int32
	out     ColumnBatch
}

// SortPermCanonical returns a permutation index over b's rows in
// canonical day-stream order, built in sc and valid until sc's next use.
// The batch itself is not reordered; feed the permutation to
// AppendGather to materialize the sorted stream.
//
// The order is a stable LSD radix sort by UE and then by the timestamp's
// offset from the batch's earliest, each skipping every byte all keys
// share (a day's offsets fit in four bytes, a campaign's UE numbers in
// two or three); CanonicalLess then orders each run of equal (timestamp,
// UE) keys. That is CanonicalLess's order for every pair of rows that
// are not identical in every field.
func (b *ColumnBatch) SortPermCanonical(sc *DayScratch) []int32 {
	n := b.Len()
	p := &sc.pairs
	p.Resize(n)
	if n == 0 {
		return p.Rows
	}
	var h radix.Hist
	minTS := b.Timestamps[0]
	for i, ue := range b.UEs {
		p.Keys[i] = uint64(ue)
		p.Rows[i] = int32(i)
		h.Add(p.Keys[i])
		minTS = min(minTS, b.Timestamps[i])
	}
	p.Sort(&h)

	// Unsigned subtraction is exact for any pair of int64 values, so the
	// offsets need no overflow guard whatever the span.
	h = radix.Hist{}
	for i, row := range p.Rows {
		p.Keys[i] = uint64(b.Timestamps[row]) - uint64(minTS)
		h.Add(p.Keys[i])
	}
	p.Sort(&h)

	keys, perm := p.Keys, p.Rows
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j] == keys[i] && b.UEs[perm[j]] == b.UEs[perm[i]] {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(perm[i:j], func(x, y int32) int {
				switch {
				case b.CanonicalLess(int(x), int(y)):
					return -1
				case b.CanonicalLess(int(y), int(x)):
					return 1
				}
				return 0
			})
		}
		i = j
	}
	return perm
}

// shardRows splits the canonically sorted perm into shards row lists by
// ShardOf, each in canonical order, reusing sc's buckets.
func (sc *DayScratch) shardRows(cols *ColumnBatch, perm []int32, shards int) [][]int32 {
	if len(sc.buckets) != shards {
		sc.buckets = make([][]int32, shards)
	}
	for sh := range sc.buckets {
		sc.buckets[sh] = sc.buckets[sh][:0]
	}
	for _, p := range perm {
		sh := ShardOf(cols.UEs[p], shards)
		sc.buckets[sh] = append(sc.buckets[sh], p)
	}
	return sc.buckets
}

// WriteDay lands one day's records as its partitions: the rows are
// sorted into the canonical order, split by ShardOf into shards streams
// (one stream for shards <= 1), and each stream is gathered and written
// as partition (day, shard). Bucketing the one sorted sequence keeps
// every UE's record order identical for any shard count, which is what
// makes sharded and unsharded scans of the same records agree byte for
// byte, and the canonical sort makes the bytes independent of the order
// the rows arrived in. sc is the caller's scratch, reused across days.
func WriteDay(s Store, day, shards int, cols *ColumnBatch, sc *DayScratch) error {
	perm := cols.SortPermCanonical(sc)
	if shards <= 1 {
		return writeGathered(s, day, 0, cols, perm, &sc.out)
	}
	for sh, rows := range sc.shardRows(cols, perm, shards) {
		if err := writeGathered(s, day, sh, cols, rows, &sc.out); err != nil {
			return err
		}
	}
	return nil
}

// writeGathered gathers the rows of src selected by rows (in that order)
// into out and lands them as partition (day, shard).
func writeGathered(s Store, day, shard int, src *ColumnBatch, rows []int32, out *ColumnBatch) error {
	out.Reset()
	out.AppendGather(src, rows)
	w, err := s.AppendPartition(day, shard)
	if err != nil {
		return err
	}
	if err := w.WriteColumns(out); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
