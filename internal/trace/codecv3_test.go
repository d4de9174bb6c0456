package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
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
			{BlockRecords: 64, Compress: true},
			{BlockRecords: 64, FastCompress: true},
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
	for _, opts := range []WriterV3Options{{BlockRecords: 64}, {BlockRecords: 64, FastCompress: true}} {
		got := decodeAll(t, encodeV3(t, recs, opts))
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
}

// TestCodecV3MatchesV2Decode is the cross-version property the CI
// determinism matrix pins: the same records written through v2 and v3
// (any compression) decode to bit-identical record sequences.
func TestCodecV3MatchesV2Decode(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(count%200) + 1
		recs := make([]Record, n)
		base := StudyStart.UnixMilli()
		for i := range recs {
			recs[i] = randRecord(r, base)
		}
		fromV2 := decodeAll(t, encodeV2(t, recs, WriterV2Options{BlockRecords: 32}))
		for _, opts := range []WriterV3Options{
			{BlockRecords: 32},
			{BlockRecords: 32, Compress: true},
			{BlockRecords: 32, FastCompress: true},
		} {
			fromV3 := decodeAll(t, encodeV3(t, recs, opts))
			if len(fromV2) != len(fromV3) {
				return false
			}
			for i := range fromV2 {
				if fromV2[i] != fromV3[i] {
					t.Logf("opts %+v record %d:\n v2 %+v\n v3 %+v", opts, i, fromV2[i], fromV3[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
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
	data := encodeV3(t, recs, WriterV3Options{BlockRecords: 64, FastCompress: true})

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

// TestCodecV3RangePrunesBlocks: v3 blocks outside the requested window
// are skipped without decoding, like v2.
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
	st := rd.Stats()
	if st.BlocksSkipped == 0 {
		t.Fatalf("no blocks pruned: %+v", st)
	}
}

// TestCodecV3RejectsCorrupt flips descriptor and payload bytes of valid
// v3 streams (all compression modes) and requires a declared error kind,
// never a panic.
func TestCodecV3RejectsCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	base := StudyStart.UnixMilli()
	recs := make([]Record, 130)
	for i := range recs {
		recs[i] = randRecord(r, base)
	}
	for _, opts := range []WriterV3Options{
		{BlockRecords: 64},
		{BlockRecords: 64, Compress: true},
		{BlockRecords: 64, FastCompress: true},
	} {
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

// TestCodecV3HeaderNegotiation: flag combinations the reader must
// reject at the header.
func TestCodecV3HeaderNegotiation(t *testing.T) {
	mk := func(flags uint16) []byte {
		return append([]byte("TLHO"), 3, 0, byte(flags), byte(flags>>8))
	}
	if _, err := NewReader(bytes.NewReader(mk(FlagFlate | FlagTLZ))); err == nil {
		t.Fatal("reader accepted v3 stream with both compression flags")
	}
	if _, err := NewReader(bytes.NewReader(mk(1 << 5))); err == nil {
		t.Fatal("reader accepted v3 stream with unknown flags")
	}
	for _, flags := range []uint16{0, FlagFlate, FlagTLZ} {
		rd, err := NewReader(bytes.NewReader(mk(flags)))
		if err != nil {
			t.Fatalf("flags %#x rejected: %v", flags, err)
		}
		var cb ColumnBatch
		if _, err := rd.NextColumns(&cb); err != io.EOF {
			t.Fatalf("empty v3 stream: got %v, want EOF", err)
		}
	}
	// v2 streams must keep rejecting the TLZ flag.
	hdr := append([]byte("TLHO"), 2, 0, byte(FlagTLZ), 0)
	if _, err := NewReader(bytes.NewReader(hdr)); err == nil {
		t.Fatal("reader accepted v2 stream with TLZ flag")
	}
	if _, err := NewWriterV3(io.Discard, WriterV3Options{Compress: true, FastCompress: true}); err == nil {
		t.Fatal("writer accepted both compression options")
	}
}

// TestTLZRoundTrip: the fast compressor round-trips arbitrary buffers —
// incompressible random bytes, highly repetitive runs, and everything
// between — and the strict decompressor rejects truncated input.
func TestTLZRoundTrip(t *testing.T) {
	table := make([]int32, tlzTableSize)
	f := func(seed int64, kind uint8, size uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size%8192) + 1
		src := make([]byte, n)
		switch kind % 3 {
		case 0: // incompressible
			r.Read(src)
		case 1: // constant
			for i := range src {
				src[i] = 0x42
			}
		default: // repetitive structure with noise
			for i := range src {
				src[i] = byte(i % 17)
				if r.Intn(20) == 0 {
					src[i] = byte(r.Intn(256))
				}
			}
		}
		comp := appendTLZ(nil, src, table)
		out := make([]byte, n)
		if err := tlzDecompress(out, comp); err != nil {
			t.Logf("decompress failed: %v", err)
			return false
		}
		if !bytes.Equal(out, src) {
			return false
		}
		if len(comp) > 1 {
			if err := tlzDecompress(out, comp[:len(comp)-1]); err == nil {
				// A truncated stream may still parse if the cut lands on
				// a sequence boundary, but then it must underrun the
				// output — which the length check catches. Reaching here
				// means silent acceptance.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func isCorrupt(err error) bool { return errors.Is(err, ErrCorruptBlock) }
