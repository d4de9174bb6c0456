package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// FuzzDecodeBlock feeds arbitrary bytes to the v2 and v3 block decoders
// through the public Reader. Truncated frames, bad varints, lying bit
// widths, oversized counts, lying compression descriptors and trailing
// garbage must all surface as errors — never as panics or unbounded
// allocations.
func FuzzDecodeBlock(f *testing.F) {
	// Seed corpus: valid streams across versions, block sizes and
	// compression, plus targeted corruptions.
	r := rand.New(rand.NewSource(1))
	base := StudyStart.UnixMilli()
	for _, n := range []int{1, 5, 130} {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randRecord(r, base)
		}
		var streams [][]byte
		for _, opts := range []WriterV2Options{{BlockRecords: 64}, {BlockRecords: 64, Compress: true}} {
			streams = append(streams, encodeV2(f, recs, opts))
		}
		for _, opts := range []WriterV3Options{
			{BlockRecords: 64},
			{BlockRecords: 64, Compress: true},
			{BlockRecords: 64, FastCompress: true},
		} {
			streams = append(streams, encodeV3(f, recs, opts))
		}
		for _, data := range streams {
			f.Add(data)
			f.Add(data[:len(data)-1])
			f.Add(data[:HeaderSize+blockHeadSize-2])
			mut := bytes.Clone(data)
			mut[HeaderSize] ^= 0x7f // count
			f.Add(mut)
			mut = bytes.Clone(data)
			mut[len(mut)-1] ^= 0xff // last payload byte
			f.Add(mut)
			mut = bytes.Clone(data)
			mut[HeaderSize+blockHeadSize] ^= 0x7f // first payload byte (v3: ts width)
			f.Add(mut)
		}
	}
	// Column-written streams with degenerate column shapes (constant
	// timestamps, single-entry TAC dictionary).
	for _, compress := range []bool{false, true} {
		var cb ColumnBatch
		cb.resize(96)
		for i := range cb.Timestamps {
			cb.Timestamps[i] = base
			cb.UEs[i] = UEID(i)
			cb.TACs[i] = 35_000_001
			cb.Sources[i] = 7
			cb.Targets[i] = 9
			cb.RATs[i] = 0x32
			cb.Durations[i] = 12.5
		}
		var buf bytes.Buffer
		w, err := NewWriterV2(&buf, WriterV2Options{BlockRecords: 64, Compress: compress})
		if err != nil {
			f.Fatal(err)
		}
		if err := w.WriteColumns(&cb); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("TLHO"))
	f.Add(append([]byte("TLHO"), 2, 0, 0, 0))
	f.Add(append([]byte("TLHO"), 2, 0, 1, 0)) // flate flag, no blocks
	f.Add(append([]byte("TLHO"), 3, 0, 0, 0))
	f.Add(append([]byte("TLHO"), 3, 0, 1, 0)) // v3 + flate, no blocks
	f.Add(append([]byte("TLHO"), 3, 0, 2, 0)) // v3 + TLZ, no blocks
	f.Add(append([]byte("TLHO"), 3, 0, 3, 0)) // both flags: must reject

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Every call that succeeds consumes at least one block (or one v1
		// record), so the loop ends; the terminal condition must be one of
		// the codec's declared error kinds (or a wrapped form of them).
		var cb ColumnBatch
		for {
			_, err := rd.NextColumns(&cb)
			if err == nil {
				continue
			}
			if err != io.EOF && err != ErrTruncated && !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("undeclared error kind: %v", err)
			}
			break
		}
	})
}
