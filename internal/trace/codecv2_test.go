package trace

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/topology"
)

// randRecord builds a structurally valid record from a seeded source, so
// property failures reproduce.
func randRecord(r *rand.Rand, base int64) Record {
	rec := Record{
		Timestamp: base + r.Int63n(24*3600*1000),
		UE:        UEID(r.Intn(50_000)),
		TAC:       devices.TAC(35_000_000 + r.Intn(500)),
		Source:    topology.SectorID(r.Intn(10_000)),
		Target:    topology.SectorID(r.Intn(10_000)),
		SourceRAT: topology.RAT(r.Intn(4)),
		TargetRAT: topology.RAT(r.Intn(4)),
	}
	if r.Intn(50) == 0 {
		rec.Result = Failure
		rec.Cause = causes.Code(1 + r.Intn(900))
		rec.DurationMs = float32(r.Intn(30_000))
	} else {
		rec.DurationMs = float32(r.Intn(3000)) / 10
	}
	return rec
}

func encodeV2(t testing.TB, recs []Record, opts WriterV2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, opts)
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
	return buf.Bytes()
}

// encodeV1 writes recs as a v1 fixed-width stream.
func encodeV1(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
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
	return buf.Bytes()
}

func decodeAll(t testing.TB, data []byte) []Record {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := readerRecords(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCodecV2RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base := StudyStart.UnixMilli()
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, opts := range []WriterV2Options{
			{BlockRecords: 64},
			{BlockRecords: 64, Compress: true},
			{}, // default block size
		} {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = randRecord(r, base)
			}
			got := decodeAll(t, encodeV2(t, recs, opts))
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

// TestCodecV1V2DecodeAgree is the cross-codec property: the same records
// written through v1 and v2 decode to bit-identical streams (durations
// included, thanks to the shared canonical quantizer). This is what makes
// analysis artifacts byte-identical across codecs.
func TestCodecV1V2DecodeAgree(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(count%200) + 1
		recs := make([]Record, n)
		base := StudyStart.UnixMilli()
		for i := range recs {
			recs[i] = randRecord(r, base)
		}

		fromV1 := decodeAll(t, encodeV1(t, recs))
		fromV2 := decodeAll(t, encodeV2(t, recs, WriterV2Options{BlockRecords: 32}))
		if len(fromV1) != len(fromV2) {
			return false
		}
		for i := range fromV1 {
			if fromV1[i] != fromV2[i] {
				t.Logf("record %d:\n v1 %+v\n v2 %+v", i, fromV1[i], fromV2[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecV2NextColumns: one NextColumns call hands out exactly one
// decoded block.
func TestCodecV2NextColumns(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	recs := make([]Record, 500)
	base := StudyStart.UnixMilli()
	for i := range recs {
		recs[i] = randRecord(r, base)
	}
	data := encodeV2(t, recs, WriterV2Options{BlockRecords: 128})
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var cb ColumnBatch
	var sizes []int
	for {
		n, err := rd.NextColumns(&cb)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, n)
	}
	if fmt.Sprint(sizes) != "[128 128 128 116]" {
		t.Fatalf("batch sizes %v, want one per block [128 128 128 116]", sizes)
	}
	if s := rd.Stats(); s.BlocksRead != 4 || s.BlocksSkipped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestReaderV1NextColumns: v1 streams fill batches of DefaultBlockRecords
// rows from the fixed-width records, the last one short.
func TestReaderV1NextColumns(t *testing.T) {
	recs := make([]Record, DefaultBlockRecords+300)
	for i := range recs {
		recs[i] = sampleRecord()
		recs[i].UE = UEID(i)
		recs[i].Timestamp += int64(i)
	}
	r, err := NewReader(bytes.NewReader(encodeV1(t, recs)))
	if err != nil {
		t.Fatal(err)
	}
	var cb ColumnBatch
	var sizes []int
	for {
		n, err := r.NextColumns(&cb)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if cb.UEs[0] != UEID(len(sizes)*DefaultBlockRecords) {
			t.Fatalf("batch %d starts at UE %d", len(sizes), cb.UEs[0])
		}
		sizes = append(sizes, n)
	}
	if len(sizes) != 2 || sizes[0] != DefaultBlockRecords || sizes[1] != 300 {
		t.Fatalf("v1 batch sizes %v, want [%d 300]", sizes, DefaultBlockRecords)
	}
}

// TestReaderSetTimeRange checks exact record filtering plus block-level
// pruning counters on a time-sorted v2 stream.
func TestReaderSetTimeRange(t *testing.T) {
	base := StudyStart.UnixMilli()
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = sampleRecord()
		recs[i].Timestamp = base + int64(i)*1000
	}
	for _, compress := range []bool{false, true} {
		data := encodeV2(t, recs, WriterV2Options{BlockRecords: 100, Compress: compress})
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		// Window covering records 250..349 inclusive.
		rd.SetTimeRange(base+250_000, base+349_000)
		got, err := readerRecords(rd)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("compress=%v: %d records in range, want 100", compress, len(got))
		}
		if got[0].Timestamp != base+250_000 || got[99].Timestamp != base+349_000 {
			t.Fatalf("compress=%v: wrong window edges", compress)
		}
		s := rd.Stats()
		// Records 250..349 span blocks 2 and 3 of ten; the other eight are
		// pruned from their descriptors alone.
		if s.BlocksRead != 2 || s.BlocksSkipped != 8 {
			t.Fatalf("compress=%v: stats = %+v, want 2 read / 8 skipped", compress, s)
		}
	}
}

// TestScanRangePrunesBlocks is the acceptance check: a 1-day window over
// a 31-day v2 store must touch <10% of the blocks, while observing
// exactly the day's records.
func TestScanRangePrunesBlocks(t *testing.T) {
	fs, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{Codec: CodecV2, BlockRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	const days = 31
	const perDay = 640 // 10 blocks per day
	for day := 0; day < days; day++ {
		recs := make([]Record, perDay)
		for i := range recs {
			recs[i] = sampleRecord()
			recs[i].UE = UEID(i)
			recs[i].Timestamp = DayStart(day).UnixMilli() + int64(i)*1000
		}
		writePartition(t, fs, day, 0, recs)
	}

	var full ScanMetrics
	c := &countingCollector{}
	if err := Scan(context.Background(), fs, ScanOptions{Metrics: &full}, c); err != nil {
		t.Fatal(err)
	}
	totalBlocks := full.BlocksRead.Load()
	if totalBlocks != days*10 {
		t.Fatalf("full scan read %d blocks, want %d", totalBlocks, days*10)
	}

	var pruned ScanMetrics
	rc := &countingCollector{}
	day := 12
	err = ScanRange(context.Background(), fs, ScanOptions{Metrics: &pruned}, DayRange(day, day), rc)
	if err != nil {
		t.Fatal(err)
	}
	if rc.total != perDay {
		t.Fatalf("1-day range observed %d records, want %d", rc.total, perDay)
	}
	read := pruned.BlocksRead.Load()
	if read*10 >= totalBlocks {
		t.Fatalf("1-day range decoded %d of %d blocks (>=10%%)", read, totalBlocks)
	}
	if read+pruned.BlocksSkipped.Load() != totalBlocks {
		t.Fatalf("read %d + skipped %d != total %d", read, pruned.BlocksSkipped.Load(), totalBlocks)
	}
	if pruned.Records.Load() != int64(perDay) {
		t.Fatalf("metrics saw %d records, want %d", pruned.Records.Load(), perDay)
	}
}

// TestScanRangeCodecAgreement: a ranged scan observes the identical
// record sequence whether the store is v1 (record filtering) or v2
// (block pruning + filtering) or in-memory.
func TestScanRangeCodecAgreement(t *testing.T) {
	build := func(s Store) {
		for day := 0; day < 4; day++ {
			recs := make([]Record, 300)
			for i := range recs {
				recs[i] = sampleRecord()
				recs[i].UE = UEID(i % 37)
				recs[i].Timestamp = DayStart(day).UnixMilli() + int64(i)*7000
			}
			writePartition(t, s, day, 0, recs)
		}
	}
	v1, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{Codec: CodecV1})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{Codec: CodecV2, BlockRecords: 50})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	stores := map[string]Store{"v1": v1, "v2": v2, "mem": mem}
	for _, s := range stores {
		build(s)
	}
	tr := DayRange(1, 2)
	results := map[string]*countingCollector{}
	for name, s := range stores {
		c := &countingCollector{}
		if err := ScanRange(context.Background(), s, ScanOptions{Parallelism: 2}, tr, c); err != nil {
			t.Fatal(err)
		}
		results[name] = c
	}
	for name, c := range results {
		if c.total != results["mem"].total || c.daySum != results["mem"].daySum {
			t.Fatalf("%s ranged scan diverges: (%d, %d) vs mem (%d, %d)",
				name, c.total, c.daySum, results["mem"].total, results["mem"].daySum)
		}
	}
	if results["mem"].total != 2*300 {
		t.Fatalf("ranged scan saw %d records, want 600", results["mem"].total)
	}
}

// TestProjectionMatchesFullDecode: every projected subset must yield the
// full decode's values on the projected fields, for every record.
func TestProjectionMatchesFullDecode(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	recs := make([]Record, 700)
	base := StudyStart.UnixMilli()
	for i := range recs {
		recs[i] = randRecord(r, base)
	}
	data := encodeV2(t, recs, WriterV2Options{BlockRecords: 128})
	full := decodeAll(t, data)
	projections := []ColumnSet{
		ColTimestamp,
		ColUE,
		ColTAC,
		ColSectors,
		ColCause,
		ColOutcome,
		ColUE | ColSectors | ColOutcome,
		ColTAC | ColSectors | ColCause | ColOutcome,
	}
	for _, proj := range projections {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rd.SetProjection(proj)
		got, err := readerRecords(rd)
		if err != nil {
			t.Fatalf("proj %b: %v", proj, err)
		}
		if len(got) != len(full) {
			t.Fatalf("proj %b: %d records, want %d", proj, len(got), len(full))
		}
		for i := range got {
			if got[i].Timestamp != full[i].Timestamp {
				t.Fatalf("proj %b rec %d: timestamp %d != %d", proj, i, got[i].Timestamp, full[i].Timestamp)
			}
			if proj&ColUE != 0 && got[i].UE != full[i].UE {
				t.Fatalf("proj %b rec %d: UE mismatch", proj, i)
			}
			if proj&ColTAC != 0 && got[i].TAC != full[i].TAC {
				t.Fatalf("proj %b rec %d: TAC mismatch", proj, i)
			}
			if proj&ColSectors != 0 && (got[i].Source != full[i].Source || got[i].Target != full[i].Target) {
				t.Fatalf("proj %b rec %d: sector mismatch", proj, i)
			}
			if proj&ColCause != 0 && got[i].Cause != full[i].Cause {
				t.Fatalf("proj %b rec %d: cause mismatch", proj, i)
			}
			if proj&ColOutcome != 0 && (got[i].Result != full[i].Result ||
				got[i].SourceRAT != full[i].SourceRAT || got[i].TargetRAT != full[i].TargetRAT ||
				got[i].DurationMs != full[i].DurationMs) {
				t.Fatalf("proj %b rec %d: outcome mismatch", proj, i)
			}
		}
	}
}

// TestScanProjectionCounts: a projected scan observes every record even
// though it decodes almost nothing.
func TestScanProjectionCounts(t *testing.T) {
	fs, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{Codec: CodecV2, BlockRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	const perDay = 500
	for day := 0; day < 3; day++ {
		recs := make([]Record, perDay)
		for i := range recs {
			recs[i] = sampleRecord()
			recs[i].Timestamp = DayStart(day).UnixMilli() + int64(i)
		}
		writePartition(t, fs, day, 0, recs)
	}
	c := &countingCollector{}
	err = Scan(context.Background(), fs, ScanOptions{Projection: ColTimestamp}, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.total != 3*perDay {
		t.Fatalf("projected scan observed %d records, want %d", c.total, 3*perDay)
	}
}

// TestWriterV2BatchMatchesWrite: one whole-batch WriteColumns call and
// the same rows written one per call produce the identical stream.
func TestWriterV2BatchMatchesWrite(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	recs := make([]Record, 333)
	base := StudyStart.UnixMilli()
	for i := range recs {
		recs[i] = randRecord(r, base)
	}
	var a bytes.Buffer
	wa, err := NewWriterV2(&a, WriterV2Options{BlockRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	var row ColumnBatch
	for i := range recs {
		row.FromRecords(recs[i : i+1])
		if err := wa.WriteColumns(&row); err != nil {
			t.Fatal(err)
		}
	}
	if err := wa.Flush(); err != nil {
		t.Fatal(err)
	}
	if b := encodeV2(t, recs, WriterV2Options{BlockRecords: 100}); !bytes.Equal(a.Bytes(), b) {
		t.Fatal("whole-batch stream differs from row-by-row stream")
	}
}

func TestV2StreamSmallerThanV1(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := make([]Record, 20_000)
	base := StudyStart.UnixMilli()
	for i := range recs {
		recs[i] = randRecord(r, base+int64(i)*500)
	}
	v1 := encodeV1(t, recs)
	v2 := encodeV2(t, recs, WriterV2Options{})
	if len(v2) >= len(v1) {
		t.Fatalf("v2 stream (%d B) not smaller than v1 (%d B)", len(v2), len(v1))
	}
	v2c := encodeV2(t, recs, WriterV2Options{Compress: true})
	if len(v2c) >= len(v2) {
		t.Fatalf("compressed v2 (%d B) not smaller than raw v2 (%d B)", len(v2c), len(v2))
	}
	t.Logf("bytes/record: v1 %.1f, v2 %.1f, v2+flate %.1f",
		float64(len(v1))/float64(len(recs)), float64(len(v2))/float64(len(recs)),
		float64(len(v2c))/float64(len(recs)))
}

func TestReaderRejectsCorruptV2(t *testing.T) {
	recs := []Record{sampleRecord(), sampleRecord()}
	data := encodeV2(t, recs, WriterV2Options{})
	// Truncations anywhere in the stream must error, never panic.
	for cut := HeaderSize + 1; cut < len(data); cut += 3 {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue
		}
		if _, err := readerRecords(r); err == nil {
			t.Fatalf("cut=%d: truncated stream read cleanly", cut)
		}
	}
	// Flipping descriptor bytes must produce errors, not panics.
	for off := HeaderSize; off < HeaderSize+blockHeadSize; off++ {
		mut := bytes.Clone(data)
		mut[off] ^= 0xff
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		readerRecords(r)
	}
}
