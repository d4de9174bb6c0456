package trace

import (
	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/topology"
)

// ColumnBatch is the structure-of-arrays (SoA) view of one decoded run
// of records: every field lives in its own parallel slice, all of the
// same length. It is the one shape records move in: stores take it on
// write and hand it out on read, and the block codecs decode straight
// into it (their payload is already columnar), so a scan never
// materializes []Record at all.
//
// RAT pairs stay packed exactly as stored on the wire — source nibble
// high, target nibble low — so batch consumers that only classify the
// handover type can mask the low nibble without unpacking. Fields
// outside the scan's column projection are present but hold unspecified
// values, mirroring the Record contract.
type ColumnBatch struct {
	Timestamps []int64
	UEs        []UEID
	TACs       []devices.TAC
	Sources    []topology.SectorID
	Targets    []topology.SectorID
	Causes     []causes.Code
	// RATs holds the packed RAT byte of each record: SourceRAT<<4 | TargetRAT.
	RATs      []uint8
	Results   []Result
	Durations []float32
}

// Len returns the number of records in the batch.
func (b *ColumnBatch) Len() int { return len(b.Timestamps) }

// resize sets every column to length n, reusing capacity. Newly exposed
// entries hold unspecified values; callers overwrite what they project.
func (b *ColumnBatch) resize(n int) {
	b.Timestamps = growCol(b.Timestamps, n)
	b.UEs = growCol(b.UEs, n)
	b.TACs = growCol(b.TACs, n)
	b.Sources = growCol(b.Sources, n)
	b.Targets = growCol(b.Targets, n)
	b.Causes = growCol(b.Causes, n)
	b.RATs = growCol(b.RATs, n)
	b.Results = growCol(b.Results, n)
	b.Durations = growCol(b.Durations, n)
}

func growCol[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// extend sets every column to length n like resize, but preserves the
// existing rows when the columns must grow (resize may not: decode paths
// overwrite everything anyway). Used by the append paths.
func (b *ColumnBatch) extend(n int) {
	b.Timestamps = growColKeep(b.Timestamps, n)
	b.UEs = growColKeep(b.UEs, n)
	b.TACs = growColKeep(b.TACs, n)
	b.Sources = growColKeep(b.Sources, n)
	b.Targets = growColKeep(b.Targets, n)
	b.Causes = growColKeep(b.Causes, n)
	b.RATs = growColKeep(b.RATs, n)
	b.Results = growColKeep(b.Results, n)
	b.Durations = growColKeep(b.Durations, n)
}

func growColKeep[T any](s []T, n int) []T {
	if cap(s) < n {
		t := make([]T, n, max(n, 2*cap(s)))
		copy(t, s)
		return t
	}
	return s[:n]
}

// Reset empties the batch, keeping column capacity for reuse.
func (b *ColumnBatch) Reset() { b.resize(0) }

// AppendRecord appends one record as a new row (packing the RAT pair).
// This is the generation-side entry point: producers push rows straight
// into column storage instead of materializing []Record.
func (b *ColumnBatch) AppendRecord(rec *Record) {
	b.Timestamps = append(b.Timestamps, rec.Timestamp)
	b.UEs = append(b.UEs, rec.UE)
	b.TACs = append(b.TACs, rec.TAC)
	b.Sources = append(b.Sources, rec.Source)
	b.Targets = append(b.Targets, rec.Target)
	b.Causes = append(b.Causes, rec.Cause)
	b.RATs = append(b.RATs, byte(rec.SourceRAT)<<4|byte(rec.TargetRAT)&0x0f)
	b.Results = append(b.Results, rec.Result)
	b.Durations = append(b.Durations, rec.DurationMs)
}

// AppendColumns appends every row of src to b: nine contiguous slice
// copies, no per-row work.
func (b *ColumnBatch) AppendColumns(src *ColumnBatch) {
	b.Timestamps = append(b.Timestamps, src.Timestamps...)
	b.UEs = append(b.UEs, src.UEs...)
	b.TACs = append(b.TACs, src.TACs...)
	b.Sources = append(b.Sources, src.Sources...)
	b.Targets = append(b.Targets, src.Targets...)
	b.Causes = append(b.Causes, src.Causes...)
	b.RATs = append(b.RATs, src.RATs...)
	b.Results = append(b.Results, src.Results...)
	b.Durations = append(b.Durations, src.Durations...)
}

// AppendGather appends src's rows selected by perm, in perm order. It is
// the columnar form of "copy these records out in sorted/sharded order":
// one pass per column over a contiguous index list.
func (b *ColumnBatch) AppendGather(src *ColumnBatch, perm []int32) {
	base := b.Len()
	b.extend(base + len(perm))
	for i, p := range perm {
		b.Timestamps[base+i] = src.Timestamps[p]
	}
	for i, p := range perm {
		b.UEs[base+i] = src.UEs[p]
	}
	for i, p := range perm {
		b.TACs[base+i] = src.TACs[p]
	}
	for i, p := range perm {
		b.Sources[base+i] = src.Sources[p]
	}
	for i, p := range perm {
		b.Targets[base+i] = src.Targets[p]
	}
	for i, p := range perm {
		b.Causes[base+i] = src.Causes[p]
	}
	for i, p := range perm {
		b.RATs[base+i] = src.RATs[p]
	}
	for i, p := range perm {
		b.Results[base+i] = src.Results[p]
	}
	for i, p := range perm {
		b.Durations[base+i] = src.Durations[p]
	}
}

// appendRange appends rows [lo, hi) of src to b: nine contiguous copies.
func (b *ColumnBatch) appendRange(src *ColumnBatch, lo, hi int) {
	b.Timestamps = append(b.Timestamps, src.Timestamps[lo:hi]...)
	b.UEs = append(b.UEs, src.UEs[lo:hi]...)
	b.TACs = append(b.TACs, src.TACs[lo:hi]...)
	b.Sources = append(b.Sources, src.Sources[lo:hi]...)
	b.Targets = append(b.Targets, src.Targets[lo:hi]...)
	b.Causes = append(b.Causes, src.Causes[lo:hi]...)
	b.RATs = append(b.RATs, src.RATs[lo:hi]...)
	b.Results = append(b.Results, src.Results[lo:hi]...)
	b.Durations = append(b.Durations, src.Durations[lo:hi]...)
}

// FromRecords transposes recs into the batch, replacing its contents.
func (b *ColumnBatch) FromRecords(recs []Record) {
	b.resize(len(recs))
	for i := range recs {
		r := &recs[i]
		b.Timestamps[i] = r.Timestamp
		b.UEs[i] = r.UE
		b.TACs[i] = r.TAC
		b.Sources[i] = r.Source
		b.Targets[i] = r.Target
		b.Causes[i] = r.Cause
		b.RATs[i] = byte(r.SourceRAT)<<4 | byte(r.TargetRAT)&0x0f
		b.Results[i] = r.Result
		b.Durations[i] = r.DurationMs
	}
}

// Record copies row i into rec (unpacking the RAT byte).
func (b *ColumnBatch) Record(i int, rec *Record) {
	rec.Timestamp = b.Timestamps[i]
	rec.UE = b.UEs[i]
	rec.TAC = b.TACs[i]
	rec.Source = b.Sources[i]
	rec.Target = b.Targets[i]
	rec.Cause = b.Causes[i]
	rec.SourceRAT = topology.RAT(b.RATs[i] >> 4)
	rec.TargetRAT = topology.RAT(b.RATs[i] & 0x0f)
	rec.Result = b.Results[i]
	rec.DurationMs = b.Durations[i]
}

// FilterRange compacts the batch to rows with
// minTS <= Timestamp <= maxTS, preserving order across every column,
// and returns the new length.
func (b *ColumnBatch) FilterRange(minTS, maxTS int64) int {
	n := 0
	for i, ts := range b.Timestamps {
		if ts >= minTS && ts <= maxTS {
			if n != i {
				b.Timestamps[n] = ts
				b.UEs[n] = b.UEs[i]
				b.TACs[n] = b.TACs[i]
				b.Sources[n] = b.Sources[i]
				b.Targets[n] = b.Targets[i]
				b.Causes[n] = b.Causes[i]
				b.RATs[n] = b.RATs[i]
				b.Results[n] = b.Results[i]
				b.Durations[n] = b.Durations[i]
			}
			n++
		}
	}
	b.resize(n)
	return n
}
