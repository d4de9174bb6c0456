package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"telcolens/internal/devices"
)

// The write-path compatibility contract: every way of feeding a block
// writer — one row per WriteColumns call, one whole batch, or ragged
// chunks — must produce the same stream, and for v2 one byte-identical
// to the record-at-a-time reference encoder below. Manifest
// fingerprints, append determinism and the codec determinism matrix all
// stand on this.

// putZigzag appends the zigzag varint encoding of v.
func putZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// appendBlockPayload is the reference record-at-a-time v2 block encoder:
// it encodes recs column-at-a-time onto dst with strided struct access
// and a map-backed TAC dictionary, returning the extended slice and the
// column extents. minTS is the block's timestamp floor (the first delta
// base).
func appendBlockPayload(dst []byte, recs []Record, minTS int64, tacDict *[]uint32, tacIdx map[devices.TAC]int) ([]byte, blockSections) {
	var secs blockSections
	// Timestamps: zigzag deltas.
	prev := minTS
	mark := len(dst)
	for i := range recs {
		dst = putZigzag(dst, recs[i].Timestamp-prev)
		prev = recs[i].Timestamp
	}
	secs.tsLen = uint32(len(dst) - mark)
	// UEs.
	mark = len(dst)
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(recs[i].UE))
	}
	secs.ueLen = uint32(len(dst) - mark)
	// TAC dictionary, frequency-ordered, ties broken by first appearance.
	*tacDict = (*tacDict)[:0]
	clear(tacIdx)
	for i := range recs {
		if _, ok := tacIdx[recs[i].TAC]; !ok {
			tacIdx[recs[i].TAC] = len(*tacDict)
			*tacDict = append(*tacDict, uint32(recs[i].TAC))
		}
	}
	counts := make([]int, len(*tacDict))
	for i := range recs {
		counts[tacIdx[recs[i].TAC]]++
	}
	order := make([]int, len(*tacDict))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if counts[order[a]] != counts[order[b]] {
			return counts[order[a]] > counts[order[b]]
		}
		return order[a] < order[b]
	})
	rank := counts // reuse: counts are no longer needed
	for r, old := range order {
		rank[old] = r
	}
	secs.dictEntries = uint32(len(*tacDict))
	for _, old := range order {
		dst = binary.LittleEndian.AppendUint32(dst, (*tacDict)[old])
	}
	mark = len(dst)
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(rank[tacIdx[recs[i].TAC]]))
	}
	secs.idxLen = uint32(len(dst) - mark)
	// Sectors.
	mark = len(dst)
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(recs[i].Source))
	}
	secs.srcLen = uint32(len(dst) - mark)
	mark = len(dst)
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(recs[i].Target))
	}
	secs.dstLen = uint32(len(dst) - mark)
	// Causes.
	mark = len(dst)
	for i := range recs {
		dst = binary.AppendUvarint(dst, uint64(recs[i].Cause))
	}
	secs.causeLen = uint32(len(dst) - mark)
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
	return dst, secs
}

// encodeRecordOracle encodes recs as a v2 stream through the reference
// encoder: records are quantized and cut into blocks of opts'
// BlockRecords, and each block is framed by the writer's own emitBlock.
func encodeRecordOracle(t *testing.T, recs []Record, opts WriterV2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	var tacDict []uint32
	tacIdx := make(map[devices.TAC]int)
	for off := 0; off < len(recs); off += w.perBlock {
		block := append([]Record(nil), recs[off:min(off+w.perBlock, len(recs))]...)
		minTS, maxTS := block[0].Timestamp, block[0].Timestamp
		for i := range block {
			block[i].DurationMs = quantizeDuration(block[i].DurationMs)
			minTS, maxTS = min(minTS, block[i].Timestamp), max(maxTS, block[i].Timestamp)
		}
		var secs blockSections
		w.enc.payload, secs = appendBlockPayload(w.enc.payload[:0], block, minTS, &tacDict, tacIdx)
		if err := w.emitBlock(len(block), minTS, maxTS, secs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Release()
	return buf.Bytes()
}

// encodeVia feeds recs to the version's block writer in chunks of the
// route's size and returns the stream.
func encodeVia(t *testing.T, recs []Record, version uint16, blockRecords int, route string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := &WriterV2{}
	if err := initBlockWriter(w, &buf, version, blockRecords); err != nil {
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
				oracle := encodeRecordOracle(t, recs, WriterV2Options{BlockRecords: blockRecs})
				v3 := encodeVia(t, recs, VersionV3, blockRecs, "columns")
				for _, route := range []string{"rows", "columns", "columns-ragged"} {
					if got := encodeVia(t, recs, VersionV2, blockRecs, route); !bytes.Equal(got, oracle) {
						t.Fatalf("v2 route %s: stream differs from the reference record encoder (%d vs %d bytes)",
							route, len(got), len(oracle))
					}
					if got := encodeVia(t, recs, VersionV3, blockRecs, route); !bytes.Equal(got, v3) {
						t.Fatalf("v3 route %s: stream differs from the whole-batch stream (%d vs %d bytes)",
							route, len(got), len(v3))
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
		"v2": encodeV2(t, recs, WriterV2Options{BlockRecords: 128}),
		"v3": encodeV3(t, recs, WriterV3Options{BlockRecords: 128}),
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
