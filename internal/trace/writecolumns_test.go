package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"telcolens/internal/devices"
)

// The write-path compatibility contract: every way of feeding the block
// writer — one row per WriteColumns call, one whole batch, or ragged
// chunks — must produce one stream, byte-identical to the
// record-at-a-time reference encoder below. Manifest fingerprints,
// append determinism and the determinism matrix all stand on this.

// appendPackedRef appends vals bitpacked at width w one bit at a time,
// LSB-first into little-endian 64-bit words: the obviously correct
// reference for appendPacked.
func appendPackedRef(dst []byte, vals []uint64, w int) []byte {
	buf := make([]byte, (len(vals)*w+63)/64*8)
	bit := 0
	for _, v := range vals {
		for k := 0; k < w; k++ {
			if v>>k&1 != 0 {
				buf[bit/8] |= 1 << (bit % 8)
			}
			bit++
		}
	}
	return append(dst, buf...)
}

// appendSectionRef appends one bitpacked section of vals: the width
// byte, with ref the column minimum as a LE u32 reference, then the
// packed offsets from it (from zero without ref).
func appendSectionRef(dst []byte, vals []uint64, ref bool) []byte {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	if !ref {
		lo = 0
	}
	w := bits.Len64(hi - lo)
	dst = append(dst, byte(w))
	if ref {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(lo))
	}
	deltas := make([]uint64, len(vals))
	for i, v := range vals {
		deltas[i] = v - lo
	}
	return appendPackedRef(dst, deltas, w)
}

// appendBlockPayload is the reference record-at-a-time block encoder:
// it encodes recs column-at-a-time onto dst with strided struct access
// and a map-backed TAC dictionary, returning the extended slice and
// recording the column extents in d. d.minTS is the block's timestamp
// floor, the reference of the timestamp section.
func appendBlockPayload(dst []byte, recs []Record, d *blockDesc) []byte {
	minTS := d.minTS
	column := func(field func(r *Record) uint64) []uint64 {
		vals := make([]uint64, len(recs))
		for i := range recs {
			vals[i] = field(&recs[i])
		}
		return vals
	}
	mark := len(dst)
	dst = appendSectionRef(dst, column(func(r *Record) uint64 { return uint64(r.Timestamp - minTS) }), false)
	d.tsLen = uint32(len(dst) - mark)
	mark = len(dst)
	dst = appendSectionRef(dst, column(func(r *Record) uint64 { return uint64(r.UE) }), true)
	d.ueLen = uint32(len(dst) - mark)
	// TAC dictionary, frequency-ordered, ties broken by first appearance.
	var dict []devices.TAC
	first := make(map[devices.TAC]int)
	counts := make(map[devices.TAC]int)
	for i := range recs {
		if _, ok := first[recs[i].TAC]; !ok {
			first[recs[i].TAC] = len(dict)
			dict = append(dict, recs[i].TAC)
		}
		counts[recs[i].TAC]++
	}
	sort.Slice(dict, func(a, b int) bool {
		if counts[dict[a]] != counts[dict[b]] {
			return counts[dict[a]] > counts[dict[b]]
		}
		return first[dict[a]] < first[dict[b]]
	})
	rank := make(map[devices.TAC]int)
	for r, tac := range dict {
		rank[tac] = r
		dst = binary.LittleEndian.AppendUint32(dst, uint32(tac))
	}
	d.dictEntries = uint32(len(dict))
	mark = len(dst)
	dst = appendSectionRef(dst, column(func(r *Record) uint64 { return uint64(rank[r.TAC]) }), false)
	d.idxLen = uint32(len(dst) - mark)
	mark = len(dst)
	dst = appendSectionRef(dst, column(func(r *Record) uint64 { return uint64(r.Source) }), true)
	d.srcLen = uint32(len(dst) - mark)
	mark = len(dst)
	dst = appendSectionRef(dst, column(func(r *Record) uint64 { return uint64(r.Target) }), true)
	d.dstLen = uint32(len(dst) - mark)
	mark = len(dst)
	dst = appendSectionRef(dst, column(func(r *Record) uint64 { return uint64(r.Cause) }), false)
	d.causeLen = uint32(len(dst) - mark)
	// Fixed-width tail: RAT pairs, results, then raw f32 durations.
	for i := range recs {
		dst = append(dst, byte(recs[i].SourceRAT)<<4|byte(recs[i].TargetRAT)&0x0f)
	}
	for i := range recs {
		dst = append(dst, byte(recs[i].Result))
	}
	for i := range recs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(recs[i].DurationMs))
	}
	return dst
}

// encodeRecordOracle encodes recs through the reference encoder:
// records are quantized and cut into blocks of opts' BlockRecords, and
// each block is framed by the shared descriptor encoder and summarized
// by the writer's index builder.
func encodeRecordOracle(t *testing.T, recs []Record, opts WriterV3Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV3(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(recs); off += w.perBlock {
		block := append([]Record(nil), recs[off:min(off+w.perBlock, len(recs))]...)
		minTS, maxTS := block[0].Timestamp, block[0].Timestamp
		for i := range block {
			block[i].DurationMs = quantizeDuration(block[i].DurationMs)
			minTS, maxTS = min(minTS, block[i].Timestamp), max(maxTS, block[i].Timestamp)
		}
		d := blockDesc{count: len(block), minTS: minTS, maxTS: maxTS}
		payload := appendBlockPayload(nil, block, &d)
		d.size = len(payload)
		var cb ColumnBatch
		cb.FromRecords(block)
		w.enc.idx.addBlock(&cb, 0, len(block), minTS, maxTS)
		frame := appendBlockDesc(nil, d)
		if _, err := w.w.Write(append(frame, payload...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Release()
	return buf.Bytes()
}

// encodeVia feeds recs to the block writer in chunks of the route's
// size and returns the stream.
func encodeVia(t *testing.T, recs []Record, blockRecords int, route string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV3(&buf, WriterV3Options{BlockRecords: blockRecords})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	switch route {
	case "rows":
		sizes = []int{1}
	case "columns":
		sizes = []int{max(len(recs), 1)}
	case "columns-ragged":
		// Ragged chunk sizes exercise both the buffered partial-block
		// path and the direct whole-block encode path.
		sizes = []int{1, 7, 130, 4096, 33}
	default:
		t.Fatalf("unknown route %q", route)
	}
	var cb ColumnBatch
	for off, k := 0, 0; off < len(recs); k++ {
		n := min(sizes[k%len(sizes)], len(recs)-off)
		cb.FromRecords(recs[off : off+n])
		if err := w.WriteColumns(&cb); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(recs)) {
		t.Fatalf("route %s: count %d, want %d", route, w.Count(), len(recs))
	}
	w.Release()
	return buf.Bytes()
}

func TestWriteColumnsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	base := StudyStart.UnixMilli()
	for _, n := range []int{1, 5, 256, 1000, 9000} {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randRecord(rng, base)
		}
		for _, blockRecs := range []int{64, 256, DefaultBlockRecords} {
			// The compress=false segment dates from when the writer had a
			// compression option; it keeps subtest names stable.
			t.Run(fmt.Sprintf("n=%d/compress=false/block=%d", n, blockRecs), func(t *testing.T) {
				oracle := encodeRecordOracle(t, recs, WriterV3Options{BlockRecords: blockRecs})
				for _, route := range []string{"rows", "columns", "columns-ragged"} {
					if got := encodeVia(t, recs, blockRecs, route); !bytes.Equal(got, oracle) {
						t.Fatalf("route %s: stream differs from the reference record encoder (%d vs %d bytes)",
							route, len(got), len(oracle))
					}
				}
			})
		}
	}
}

// TestWriteColumnsRoundTrip writes a columnar batch and reads it back
// through NextColumns: every column must survive (durations at the
// codec's canonical quantization).
func TestWriteColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	base := StudyStart.UnixMilli()
	recs := make([]Record, 3000)
	for i := range recs {
		recs[i] = randRecord(rng, base)
	}
	var in ColumnBatch
	in.FromRecords(recs)
	for codec, data := range map[string][]byte{
		"block128":  encodeV3(t, recs, WriterV3Options{BlockRecords: 128}),
		"block4096": encodeV3(t, recs, WriterV3Options{}),
	} {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var cb ColumnBatch
		pos := 0
		for {
			n, err := r.NextColumns(&cb)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				j := pos + i
				if cb.Timestamps[i] != in.Timestamps[j] || cb.UEs[i] != in.UEs[j] ||
					cb.TACs[i] != in.TACs[j] || cb.Sources[i] != in.Sources[j] ||
					cb.Targets[i] != in.Targets[j] || cb.Causes[i] != in.Causes[j] ||
					cb.RATs[i] != in.RATs[j] || cb.Results[i] != in.Results[j] {
					t.Fatalf("%s: row %d differs after round trip", codec, j)
				}
				if want := quantizeDuration(in.Durations[j]); cb.Durations[i] != want &&
					!(math.IsNaN(float64(cb.Durations[i])) && math.IsNaN(float64(want))) {
					t.Fatalf("%s: row %d duration %g, want %g", codec, j, cb.Durations[i], want)
				}
			}
			pos += n
		}
		if pos != len(recs) {
			t.Fatalf("%s: round trip saw %d rows, want %d", codec, pos, len(recs))
		}
	}
}
