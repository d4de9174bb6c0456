package trace

import (
	"math"
	"sort"
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

// SortPermCanonical returns a permutation index over b's rows in
// canonical day-stream order, reusing perm's capacity. The batch itself
// is not reordered; feed the permutation to AppendGather to materialize
// the sorted stream.
func (b *ColumnBatch) SortPermCanonical(perm []int32) []int32 {
	n := b.Len()
	if cap(perm) < n {
		perm = make([]int32, n)
	}
	perm = perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, c int) bool {
		return b.CanonicalLess(int(perm[a]), int(perm[c]))
	})
	return perm
}

// WriteDay lands one day's records as its partitions: the rows are
// sorted into the canonical order, split by ShardOf into shards streams
// (one stream for shards <= 1), and each stream is gathered into out and
// written as partition (day, shard). Bucketing the one sorted sequence
// keeps every UE's record order identical for any shard count, which is
// what makes sharded and unsharded scans of the same records agree byte
// for byte, and the canonical sort makes the bytes independent of the
// order the rows arrived in. perm and out are the caller's scratch;
// WriteDay returns perm grown for reuse.
func WriteDay(s Store, day, shards int, cols *ColumnBatch, perm []int32, out *ColumnBatch) ([]int32, error) {
	perm = cols.SortPermCanonical(perm)
	if shards <= 1 {
		return perm, writeGathered(s, day, 0, cols, perm, out)
	}
	buckets := make([][]int32, shards)
	for _, p := range perm {
		sh := ShardOf(cols.UEs[p], shards)
		buckets[sh] = append(buckets[sh], p)
	}
	for sh, rows := range buckets {
		if err := writeGathered(s, day, sh, cols, rows, out); err != nil {
			return perm, err
		}
	}
	return perm, nil
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
