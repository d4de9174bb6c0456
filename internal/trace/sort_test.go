package trace

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/topology"
)

// canonicalOracle is the comparison sort the radix SortPermCanonical
// replaced: sort.Slice over CanonicalLess.
func canonicalOracle(b *ColumnBatch) []int32 {
	perm := make([]int32, b.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(x, y int) bool { return b.CanonicalLess(int(perm[x]), int(perm[y])) })
	return perm
}

// fuzzRecordBytes is how many input bytes make one fuzzed record.
const fuzzRecordBytes = 8

// fuzzTieBatch decodes data into records drawn from small domains, so
// equal timestamps, equal UEs and fully identical records are common.
// Each record's timestamp is base plus one of eight multiples of
// 1<<(shift%48) ms, spanning milliseconds to centuries either side of
// base; its UE is one of eight values that include 0, MaxUint32 and
// byte boundaries; a set flag copies an earlier record verbatim.
func fuzzTieBatch(data []byte, base int64, shift uint8) *ColumnBatch {
	ues := [8]UEID{0, 1, 2, math.MaxUint32, math.MaxUint32 - 1, 255, 256, 1 << 16}
	step := int64(1) << (shift % 48)
	var recs []Record
	for ; len(data) >= fuzzRecordBytes && len(recs) < 4096; data = data[fuzzRecordBytes:] {
		if data[2]&0x80 != 0 && len(recs) > 0 {
			recs = append(recs, recs[int(data[2]&0x7f)%len(recs)])
			continue
		}
		recs = append(recs, Record{
			Timestamp:  base + int64(int8(data[0])>>5)*step,
			UE:         ues[data[1]%8],
			Source:     topology.SectorID(data[3] % 3),
			Target:     topology.SectorID(data[3] >> 6),
			SourceRAT:  topology.RAT(data[4] % 4),
			TargetRAT:  topology.RAT(data[4] >> 2 % 4),
			Result:     Result(data[4] >> 4 % 2),
			Cause:      causes.Code(data[5] % 3),
			TAC:        devices.TAC(data[6] % 3),
			DurationMs: math.Float32frombits(uint32(data[7])<<24 | uint32(data[7]%4)),
		})
	}
	var b ColumnBatch
	b.FromRecords(recs)
	return &b
}

// sameRow reports whether row i of a and row j of b agree in every
// column (durations bit for bit, so NaNs compare).
func sameRow(a *ColumnBatch, i int, b *ColumnBatch, j int) bool {
	return a.Timestamps[i] == b.Timestamps[j] && a.UEs[i] == b.UEs[j] &&
		a.TACs[i] == b.TACs[j] && a.Sources[i] == b.Sources[j] &&
		a.Targets[i] == b.Targets[j] && a.Causes[i] == b.Causes[j] &&
		a.RATs[i] == b.RATs[j] && a.Results[i] == b.Results[j] &&
		math.Float32bits(a.Durations[i]) == math.Float32bits(b.Durations[j])
}

// checkCanonicalOrder gathers b by the radix permutation and by the
// oracle's and requires the same rows, and that the radix permutation
// is a permutation.
func checkCanonicalOrder(t *testing.T, b *ColumnBatch, sc *DayScratch) {
	t.Helper()
	perm := b.SortPermCanonical(sc)
	seen := make([]bool, b.Len())
	for _, p := range perm {
		if p < 0 || int(p) >= b.Len() || seen[p] {
			t.Fatalf("radix permutation %v is not a permutation of %d rows", perm, b.Len())
		}
		seen[p] = true
	}
	var got, want ColumnBatch
	got.AppendGather(b, perm)
	want.AppendGather(b, canonicalOracle(b))
	if got.Len() != want.Len() {
		t.Fatalf("radix gathered %d rows, oracle %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if !sameRow(&got, i, &want, i) {
			var g, w Record
			got.Record(i, &g)
			want.Record(i, &w)
			t.Fatalf("row %d of %d: radix %+v, oracle %+v", i, got.Len(), g, w)
		}
	}
}

// FuzzCanonicalOrder checks the radix SortPermCanonical against
// sort.Slice over CanonicalLess: both must gather the same rows, with
// ties forced on the millisecond, the UE and the whole record, UEs at
// 0 and MaxUint32, and timestamp spans from one millisecond to
// overflowing int64 around negative and multi-day bases.
func FuzzCanonicalOrder(f *testing.F) {
	rec := func(b0, b1, b2, b3, b4, b5, b6, b7 byte) []byte { return []byte{b0, b1, b2, b3, b4, b5, b6, b7} }
	cat := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	day := StudyStart.UnixMilli()
	// Same millisecond, same UE, every other field different.
	f.Add(cat(rec(0, 1, 0, 2, 3, 1, 2, 9), rec(0, 1, 0, 1, 7, 2, 0, 4), rec(0, 1, 0, 0, 0x13, 0, 1, 200), rec(0, 1, 0, 0x41, 1, 1, 1, 0)), day, uint8(0))
	// Same millisecond, different UEs including 0 and MaxUint32.
	f.Add(cat(rec(0, 3, 0, 0, 0, 0, 0, 0), rec(0, 0, 0, 0, 0, 0, 0, 0), rec(0, 4, 0, 0, 0, 0, 0, 0), rec(0, 7, 0, 0, 0, 0, 0, 0), rec(0, 6, 0, 0, 0, 0, 0, 0)), day, uint8(3))
	// Fully identical records in a long run of one UE's millisecond.
	long := rec(0x20, 2, 0, 1, 1, 1, 1, 1)
	for i := 0; i < 20; i++ {
		long = append(long, rec(0x20, 2, 0x80, 0, 0, 0, 0, 0)...)
		long = append(long, rec(0x20, 2, 0, byte(i), byte(i), byte(i), byte(i), byte(i))...)
	}
	f.Add(long, day, uint8(5))
	// Negative, multi-day and int64-overflowing spans.
	spread := cat(rec(0x80, 0, 0, 0, 0, 0, 0, 0), rec(0x7f, 3, 0, 0, 0, 0, 0, 0), rec(0, 5, 0, 0, 0, 0, 0, 0), rec(0xc0, 3, 0, 1, 0, 0, 0, 0), rec(0x40, 0, 0x81, 0, 0, 0, 0, 0))
	f.Add(spread, int64(-3*86_400_000), uint8(26))
	f.Add(spread, int64(math.MinInt64), uint8(47))
	f.Add(spread, int64(math.MaxInt64), uint8(40))
	f.Add([]byte{}, int64(0), uint8(0))
	f.Add(rec(1, 2, 3, 4, 5, 6, 7, 8), int64(0), uint8(0))
	var sc DayScratch
	f.Fuzz(func(t *testing.T, data []byte, base int64, shift uint8) {
		checkCanonicalOrder(t, fuzzTieBatch(data, base, shift), &sc)
	})
}

// TestSortPermCanonicalDaySized checks the radix against the oracle on
// day-sized batches of random records, one in five sharing the previous
// record's millisecond and UE, reusing one scratch across sizes that
// grow and shrink.
func TestSortPermCanonicalDaySized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var sc DayScratch
	for _, n := range []int{50_000, 3, 20_000} {
		var b ColumnBatch
		for i := 0; i < n; i++ {
			rec := randRecord(r, StudyStart.UnixMilli())
			if i > 0 && r.Intn(5) == 0 {
				rec.Timestamp, rec.UE = b.Timestamps[i-1], b.UEs[i-1]
			}
			b.AppendRecord(&rec)
		}
		checkCanonicalOrder(t, &b, &sc)
	}
}
