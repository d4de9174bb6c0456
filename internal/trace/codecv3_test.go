package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func encodeV3(t testing.TB, recs []Record, opts WriterV3Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV3(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cb ColumnBatch
	cb.FromRecords(recs)
	if err := w.WriteColumns(&cb); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(recs)) {
		t.Fatalf("writer count = %d, want %d", w.Count(), len(recs))
	}
	w.Release()
	return buf.Bytes()
}

func TestCodecV3RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	base := StudyStart.UnixMilli()
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, opts := range []WriterV3Options{
			{BlockRecords: 64},
			{}, // default block size
		} {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = randRecord(r, base)
			}
			got := decodeAll(t, encodeV3(t, recs, opts))
			if len(got) != n {
				t.Fatalf("opts=%+v n=%d: decoded %d records", opts, n, len(got))
			}
			for i := range recs {
				want := recs[i]
				want.DurationMs = quantizeDuration(want.DurationMs)
				if got[i] != want {
					t.Fatalf("opts=%+v record %d:\n in  %+v\n out %+v", opts, i, want, got[i])
				}
			}
		}
	}
}

// TestAppendBlockIsThePartitionFrame: AppendBlock writes exactly the
// frame a partition writer stores for the same rows as one block, and
// DecodeBlock reads it back to the rows, durations quantized. A batch
// of no rows is the end-of-blocks marker, not a block.
func TestAppendBlockIsThePartitionFrame(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	base := StudyStart.UnixMilli()
	for _, n := range []int{1, 2, 300, DefaultBlockRecords} {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randRecord(r, base)
		}
		var cb ColumnBatch
		cb.FromRecords(recs)
		frame, err := AppendBlock(nil, &cb)
		if err != nil {
			t.Fatal(err)
		}
		stream := encodeV3(t, recs, WriterV3Options{BlockRecords: n})
		if !bytes.Equal(stream[HeaderSize:HeaderSize+len(frame)], frame) ||
			!bytes.Equal(stream[HeaderSize+len(frame):][:len(endOfBlocks)], endOfBlocks[:]) {
			t.Fatalf("n=%d: AppendBlock's frame is not the partition's block", n)
		}
		var got ColumnBatch
		if err := DecodeBlock(frame, &got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range recs {
			want := recs[i]
			want.DurationMs = quantizeDuration(want.DurationMs)
			var rec Record
			if got.Record(i, &rec); rec != want {
				t.Fatalf("n=%d record %d:\n in  %+v\n out %+v", n, i, want, rec)
			}
		}
	}
	if _, err := AppendBlock(nil, new(ColumnBatch)); err == nil {
		t.Fatal("AppendBlock encoded a block of no rows")
	}
}

// TestCodecV3ConstantColumns exercises the w=0 degenerate packing: a
// block where every variable-width column is constant stores only width
// bytes and references, and must still round-trip exactly.
func TestCodecV3ConstantColumns(t *testing.T) {
	base := StudyStart.UnixMilli()
	recs := make([]Record, 96)
	for i := range recs {
		recs[i] = Record{
			Timestamp: base, UE: 7, TAC: 35_000_001,
			Source: 3, Target: 9, SourceRAT: 3, TargetRAT: 2,
			DurationMs: 12.5,
		}
	}
	got := decodeAll(t, encodeV3(t, recs, WriterV3Options{BlockRecords: 64}))
	if len(got) != len(recs) {
		t.Fatalf("decoded %d of %d", len(got), len(recs))
	}
	for i := range recs {
		want := recs[i]
		want.DurationMs = quantizeDuration(want.DurationMs)
		if got[i] != want {
			t.Fatalf("record %d:\n in  %+v\n out %+v", i, want, got[i])
		}
	}
}

// TestCodecV3Columns checks the SoA decode against the written records
// and the column projection contract on v3 streams.
func TestCodecV3Columns(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	base := StudyStart.UnixMilli()
	recs := make([]Record, 300)
	for i := range recs {
		recs[i] = randRecord(r, base)
	}
	data := encodeV3(t, recs, WriterV3Options{BlockRecords: 64})

	got := decodeAll(t, data)
	want := append([]Record(nil), recs...)
	for i := range want {
		want[i].DurationMs = quantizeDuration(want[i].DurationMs)
	}
	if len(got) != len(want) {
		t.Fatalf("columns decoded %d, records %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d:\n cols %+v\n recs %+v", i, got[i], want[i])
		}
	}

	// Projection: timestamps and UEs only; both must match full decode.
	rd2, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rd2.SetProjection(ColUE)
	var cb2 ColumnBatch
	idx := 0
	for {
		n, err := rd2.NextColumns(&cb2)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if cb2.Timestamps[i] != want[idx].Timestamp || cb2.UEs[i] != want[idx].UE {
				t.Fatalf("projected row %d: ts=%d ue=%d, want ts=%d ue=%d",
					idx, cb2.Timestamps[i], cb2.UEs[i], want[idx].Timestamp, want[idx].UE)
			}
			idx++
		}
	}
	if idx != len(want) {
		t.Fatalf("projected decode yielded %d rows, want %d", idx, len(want))
	}
}

// TestCodecV3RangePrunesBlocks: blocks outside the requested window are
// skipped without decoding.
func TestCodecV3RangePrunesBlocks(t *testing.T) {
	base := StudyStart.UnixMilli()
	recs := make([]Record, 512)
	for i := range recs {
		recs[i] = Record{Timestamp: base + int64(i)*1000, UE: UEID(i), TAC: 35_000_000, Source: 1, Target: 2, DurationMs: 50}
	}
	data := encodeV3(t, recs, WriterV3Options{BlockRecords: 64})
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rd.SetTimeRange(recs[200].Timestamp, recs[260].Timestamp)
	got, err := readerRecords(rd)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 61 {
		t.Fatalf("windowed decode yielded %d records, want 61", len(got))
	}
	st := rd.ReadStats()
	if st.BlocksSkipped == 0 {
		t.Fatalf("no blocks pruned: %+v", st)
	}
}

// TestCodecV3RejectsCorrupt flips descriptor and payload bytes of valid
// v3 streams and requires a declared error kind, never a panic.
func TestCodecV3RejectsCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	base := StudyStart.UnixMilli()
	recs := make([]Record, 130)
	for i := range recs {
		recs[i] = randRecord(r, base)
	}
	for _, opts := range []WriterV3Options{{BlockRecords: 64}, {BlockRecords: 7}} {
		data := encodeV3(t, recs, opts)
		for pos := HeaderSize; pos < len(data); pos++ {
			mut := bytes.Clone(data)
			mut[pos] ^= 0xff
			rd, err := NewReader(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			if _, err := readerRecords(rd); err != nil && err != ErrTruncated && !isCorrupt(err) {
				t.Fatalf("opts=%+v pos=%d: undeclared error kind: %v", opts, pos, err)
			}
		}
		// Truncations at every length must also land on a declared kind.
		for cut := HeaderSize; cut < len(data); cut += 7 {
			rd, err := NewReader(bytes.NewReader(data[:cut]))
			if err != nil {
				continue
			}
			if _, err := readerRecords(rd); err != nil && err != ErrTruncated && !isCorrupt(err) {
				t.Fatalf("opts=%+v cut=%d: undeclared error kind: %v", opts, cut, err)
			}
		}
	}
}

// TestCodecV3HeaderNegotiation: the reader accepts exactly the v4
// header without flags, and a stream that ends without its
// end-of-blocks marker is truncated. The formats earlier versions wrote
// (v1, v2, flate or TLZ block compression, and v3 blocks with a
// separate index sidecar) and headers no version wrote fail with
// ErrBadVersion; the retired formats are named, with the way back.
func TestCodecV3HeaderNegotiation(t *testing.T) {
	var cb ColumnBatch
	rd, err := NewReader(bytes.NewReader(append(headerBytes(VersionV4, 0), endOfBlocks[:]...)))
	if err != nil {
		t.Fatalf("v4 rejected: %v", err)
	}
	if _, err := rd.NextColumns(&cb); err != io.EOF {
		t.Fatalf("empty v4 stream: got %v, want EOF", err)
	}
	rd, err = NewReader(bytes.NewReader(headerBytes(VersionV4, 0)))
	if err != nil {
		t.Fatalf("v4 rejected: %v", err)
	}
	if _, err := rd.NextColumns(&cb); err != ErrTruncated {
		t.Fatalf("v4 stream without its end-of-blocks marker: got %v, want ErrTruncated", err)
	}
	for _, c := range []struct {
		version, flags uint16
		format         string
	}{
		{1, 0, "v1 fixed-width records"},
		{2, 0, "v2 varint-coded blocks"},
		{2, 1, "v2 with flate-compressed blocks"},
		{3, 0, "v3 blocks with a separate index sidecar"},
		{3, 1, "v3 with flate-compressed blocks"},
		{3, 2, "v3 with TLZ-compressed blocks"},
		{2, 2, ""},
		{3, 3, ""},
		{3, 1 << 5, ""},
		{VersionV4, 1, ""},
		{5, 0, ""},
	} {
		_, err := NewReader(bytes.NewReader(headerBytes(c.version, c.flags)))
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d flags %#x: err = %v, want ErrBadVersion", c.version, c.flags, err)
		}
		if c.format != "" && (!strings.Contains(err.Error(), c.format) || !strings.Contains(err.Error(), "telcogen")) {
			t.Fatalf("version %d flags %#x: %q does not name %q and the regeneration", c.version, c.flags, err, c.format)
		}
	}
}

// headerBytes is a stream header naming version and flags.
func headerBytes(version, flags uint16) []byte {
	return append([]byte("TLHO"), byte(version), byte(version>>8), byte(flags), byte(flags>>8))
}

func isCorrupt(err error) bool { return errors.Is(err, ErrCorruptBlock) }
