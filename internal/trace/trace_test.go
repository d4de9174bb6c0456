package trace

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/ho"
	"telcolens/internal/topology"
)

func sampleRecord() Record {
	return Record{
		Timestamp:  StudyStart.UnixMilli() + 123456,
		UE:         42,
		TAC:        devices.TAC(35_000_001),
		Source:     7,
		Target:     9,
		SourceRAT:  topology.FourG,
		TargetRAT:  topology.ThreeG,
		Result:     Failure,
		Cause:      4,
		DurationMs: 81.3,
	}
}

func TestRecordHOType(t *testing.T) {
	r := sampleRecord()
	if r.HOType() != ho.To3G {
		t.Fatalf("HOType = %v", r.HOType())
	}
	r.TargetRAT = topology.FourG
	if r.HOType() != ho.Intra {
		t.Fatal("intra misclassified")
	}
	r.TargetRAT = topology.TwoG
	if r.HOType() != ho.To2G {
		t.Fatal("2G misclassified")
	}
}

func TestRecordValidate(t *testing.T) {
	r := sampleRecord()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := r
	bad.Result = Success // but cause set
	if bad.Validate() == nil {
		t.Fatal("success with cause accepted")
	}
	bad = r
	bad.Cause = causes.CodeNone
	if bad.Validate() == nil {
		t.Fatal("failure without cause accepted")
	}
	bad = r
	bad.DurationMs = -1
	if bad.Validate() == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestDayHelpers(t *testing.T) {
	if DayOf(StudyStart.UnixMilli()) != 0 {
		t.Fatal("study start not day 0")
	}
	d3 := StudyStart.Add(3*24*time.Hour + 5*time.Hour)
	if DayOf(d3.UnixMilli()) != 3 {
		t.Fatal("day offset wrong")
	}
	if !DayStart(1).Equal(StudyStart.AddDate(0, 0, 1)) {
		t.Fatal("DayStart wrong")
	}
}

// TestCodecRoundTrip: one record survives the v3 stream intact, its
// duration within the fixed-point quantizer's resolution.
func TestCodecRoundTrip(t *testing.T) {
	rec := sampleRecord()
	got := decodeAll(t, encodeV3(t, []Record{rec}, WriterV3Options{}))
	if len(got) != 1 {
		t.Fatalf("decoded %d records, want 1", len(got))
	}
	if math.Abs(float64(got[0].DurationMs-rec.DurationMs)) > 0.06 {
		t.Fatalf("duration drift: %g vs %g", got[0].DurationMs, rec.DurationMs)
	}
	got[0].DurationMs = rec.DurationMs
	if got[0] != rec {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", rec, got[0])
	}
}

// TestCodecRoundTripProperty: records over the full field ranges survive
// the stream, durations within the quantizer's resolution in each scale
// regime.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(ts int64, ue, tac, src, dst uint32, srcRAT, dstRAT uint8, fail bool, cause uint16, durMilli uint16) bool {
		rec := Record{
			Timestamp: ts,
			UE:        UEID(ue),
			TAC:       devices.TAC(tac),
			Source:    topology.SectorID(src),
			Target:    topology.SectorID(dst),
			SourceRAT: topology.RAT(srcRAT % 4),
			TargetRAT: topology.RAT(dstRAT % 4),
			Result:    Success,
		}
		if fail {
			rec.Result = Failure
			rec.Cause = causes.Code(cause)
		}
		rec.DurationMs = float32(durMilli) / 10 // 0..6553.5ms
		v3 := decodeAll(t, encodeV3(t, []Record{rec}, WriterV3Options{}))
		if len(v3) != 1 {
			return false
		}
		got := v3[0]
		// duration tolerance depends on scale regime
		tol := 0.06
		if rec.DurationMs > 3276.7 {
			tol = 0.51
		}
		if math.Abs(float64(got.DurationMs-rec.DurationMs)) > tol {
			return false
		}
		got.DurationMs = rec.DurationMs
		return got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationEncodingRegimes(t *testing.T) {
	cases := []struct {
		in  float32
		tol float64
	}{
		{0, 0.01}, {43.4, 0.06}, {3276.7, 0.06},
		{5000, 0.51}, {10200, 0.51}, {32767, 0.51},
	}
	for _, c := range cases {
		code, _ := DurationCode(c.in)
		got := DurationValue(code)
		if math.Abs(float64(got-c.in)) > c.tol {
			t.Errorf("duration %g decoded as %g", c.in, got)
		}
	}
	// Saturation: durations beyond 32767 ms clamp rather than wrap.
	if code, ok := DurationCode(1e9); DurationValue(code) != 32767 || ok {
		t.Fatalf("oversized duration decoded as %g (canonical %v)", DurationValue(code), ok)
	}
	if code, ok := DurationCode(-5); DurationValue(code) != 0 || ok {
		t.Fatalf("negative duration decoded as %g (canonical %v)", DurationValue(code), ok)
	}
}

// TestDurationCodeIsCanonical: every code an encoder writes maps back to
// itself through its value, and those values rise with the code; a code
// no encoder writes (whole milliseconds below 3 277) stands for a value
// whose code is another one. NaN, −0 and off-grid values are refused.
func TestDurationCodeIsCanonical(t *testing.T) {
	prev := float32(-1)
	for c := 0; c <= math.MaxUint16; c++ {
		code := uint16(c)
		v := DurationValue(code)
		got, ok := DurationCode(v)
		if written := code < 0x8000 || code > 0x8ccc; !ok || (got == code) != written {
			t.Fatalf("code %#04x: value %g maps to %#04x (canonical %v)", code, v, got, ok)
		}
		if got == code {
			if v <= prev {
				t.Fatalf("code %#04x: value %g does not rise above %g", code, v, prev)
			}
			prev = v
		}
	}
	for _, ms := range []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), 43.45, 3500.5, -1, 40000} {
		if code, ok := DurationCode(ms); ok {
			t.Fatalf("duration %g is canonical as %#04x", ms, code)
		}
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterV3(&buf, WriterV3Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Record, 1000)
	for i := range want {
		want[i] = sampleRecord()
		want[i].UE = UEID(i)
		want[i].Timestamp += int64(i * 1000)
	}
	var cb ColumnBatch
	cb.FromRecords(want)
	if err := w.WriteColumns(&cb); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 1000 {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readerRecords(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].UE != want[i].UE || got[i].Timestamp != want[i].Timestamp {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.NextColumns(&cb); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsBadStreams(t *testing.T) {
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := NewReader(strings.NewReader("XXXXxxxx")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Valid header, truncated block.
	data := encodeV3(t, []Record{sampleRecord()}, WriterV3Options{})
	r, err := NewReader(bytes.NewReader(data[:blocksEnd(t, data)-len(endOfBlocks)-3]))
	if err != nil {
		t.Fatal(err)
	}
	var cb ColumnBatch
	if _, err := r.NextColumns(&cb); err != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func storeRoundTrip(t *testing.T, s Store) {
	t.Helper()
	for day := 0; day < 3; day++ {
		recs := make([]Record, 100*(day+1))
		for i := range recs {
			recs[i] = sampleRecord()
			recs[i].UE = UEID(day*1000 + i)
		}
		writePartition(t, s, day, 0, recs)
	}
	parts, err := s.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 || parts[0] != (Partition{Day: 0}) || parts[2] != (Partition{Day: 2}) {
		t.Fatalf("partitions = %v", parts)
	}
	total, err := Count(s)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100+200+300 {
		t.Fatalf("count = %d", total)
	}
	// Double-write rejection.
	if _, err := s.AppendPartition(1, 0); err == nil {
		t.Fatal("rewriting day 1 accepted")
	}
	// Missing day rejection.
	if _, err := s.OpenPartition(99, 0); err == nil {
		t.Fatal("missing day opened")
	}
	// Days and shards outside [0, 999] have no partition name, so no
	// store accepts them.
	for _, p := range []Partition{{Day: 1000}, {Day: -3}, {Day: 4, Shard: 1000}, {Day: 4, Shard: -1}} {
		if _, err := s.AppendPartition(p.Day, p.Shard); err == nil {
			t.Fatalf("partition %+v accepted", p)
		}
	}
	if total, err := Count(s); err != nil || total != 600 {
		t.Fatalf("count after rejected appends = %d, %v", total, err)
	}
}

func TestFileStore(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeRoundTrip(t, fs)
}

// TestFileStoreOpenWhileWriting: a partition being written is not part
// of the store until its writer closes, and a closed writer refuses
// more rows.
func TestFileStoreOpenWhileWriting(t *testing.T) {
	s := tempStore(t)
	writePartition(t, s, 0, 0, []Record{sampleRecord()})
	w, err := s.AppendPartition(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRecords(w, sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if parts, err := s.Partitions(); err != nil || len(parts) != 1 {
		t.Fatalf("in-progress partition listed: %v, %v", parts, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if parts, err := s.Partitions(); err != nil || len(parts) != 2 {
		t.Fatalf("closed partition not listed: %v, %v", parts, err)
	}
	it, err := s.OpenPartition(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := readRecords(it); err != nil || len(recs) != 1 {
		t.Fatalf("read back %d records, %v", len(recs), err)
	}
	it.Close()
	// Writing after close fails.
	if err := writeRecords(w, sampleRecord()); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestForEachOrdering(t *testing.T) {
	s := tempStore(t)
	for _, day := range []int{2, 0, 1} {
		rec := sampleRecord()
		rec.UE = UEID(day)
		writePartition(t, s, day, 0, []Record{rec})
	}
	var seen []int
	err := ForEach(s, func(day int, rec *Record) error {
		seen = append(seen, day)
		if UEID(day) != rec.UE {
			t.Fatalf("day %d has record of UE %d", day, rec.UE)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("days visited: %v", seen)
	}
}
