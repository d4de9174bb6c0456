package trace

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

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

// writeV2Partition lands recs in fs as a v2 partition with no sidecar
// — what a campaign written before v3 became the only write format
// holds — and folds it into the MANIFEST like any closed partition.
func writeV2Partition(t testing.TB, fs *FileStore, day, shard int, recs []Record, blockRecords int) {
	t.Helper()
	data := encodeV2(t, recs, WriterV2Options{BlockRecords: blockRecords})
	if err := os.WriteFile(fs.partitionPath(day, shard), data, 0o644); err != nil {
		t.Fatal(err)
	}
	d := newPartitionDigest()
	d.observeBytes(data)
	for i := range recs {
		d.observeTS(recs[i].Timestamp)
	}
	if err := fs.notePartitionClosed(d.info(day, shard, int64(len(recs)))); err != nil {
		t.Fatal(err)
	}
}

// stampHeader rewrites the version and flags of every partition stream
// in fs, leaving the MANIFEST and sidecars as they were: the store then
// holds a format this package no longer reads, in files whose layout is
// otherwise intact.
func stampHeader(t testing.TB, fs *FileStore, version, flags uint16) {
	t.Helper()
	parts, err := fs.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		stampPartition(t, fs, p, version, flags)
	}
}

// stampPartition is stampHeader for one partition.
func stampPartition(t testing.TB, fs *FileStore, p Partition, version, flags uint16) {
	t.Helper()
	path := fs.partitionPath(p.Day, p.Shard)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4], data[5], data[6], data[7] = byte(version), byte(version>>8), byte(flags), byte(flags>>8)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
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
	if s := rd.ReadStats(); s.BlocksRead != 4 || s.BlocksSkipped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestReaderSetTimeRange checks exact record filtering plus block-level
// pruning counters on time-sorted v2 and v3 streams.
func TestReaderSetTimeRange(t *testing.T) {
	base := StudyStart.UnixMilli()
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = sampleRecord()
		recs[i].Timestamp = base + int64(i)*1000
	}
	for codec, data := range map[string][]byte{
		"v2": encodeV2(t, recs, WriterV2Options{BlockRecords: 100}),
		"v3": encodeV3(t, recs, WriterV3Options{BlockRecords: 100}),
	} {
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
			t.Fatalf("%s: %d records in range, want 100", codec, len(got))
		}
		if got[0].Timestamp != base+250_000 || got[99].Timestamp != base+349_000 {
			t.Fatalf("%s: wrong window edges", codec)
		}
		s := rd.ReadStats()
		// Records 250..349 span blocks 2 and 3 of ten; the other eight are
		// pruned from their descriptors alone.
		if s.BlocksRead != 2 || s.BlocksSkipped != 8 {
			t.Fatalf("%s: stats = %+v, want 2 read / 8 skipped", codec, s)
		}
	}
}

// TestScanRangePrunesBlocks is the acceptance check: a 1-day window over
// a 31-day store must touch <10% of the blocks, while observing exactly
// the day's records.
func TestScanRangePrunesBlocks(t *testing.T) {
	fs, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{BlockRecords: 64})
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
	tr := DayRange(day, day)
	err = Scan(context.Background(), fs, ScanOptions{Metrics: &pruned, Range: &tr}, rc)
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
// record sequence whether the store is v2 or v3 (block pruning +
// filtering) or read a row at a time (record filtering, rowStore).
func TestScanRangeCodecAgreement(t *testing.T) {
	v2, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v3, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{BlockRecords: 50})
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 4; day++ {
		recs := make([]Record, 300)
		for i := range recs {
			recs[i] = sampleRecord()
			recs[i].UE = UEID(i % 37)
			recs[i].Timestamp = DayStart(day).UnixMilli() + int64(i)*7000
		}
		writeV2Partition(t, v2, day, 0, recs, 50)
		writePartition(t, v3, day, 0, recs)
	}
	stores := map[string]Store{"v2": v2, "v3": v3, "rows": rowStore{v3}}
	tr := DayRange(1, 2)
	results := map[string]*countingCollector{}
	for name, s := range stores {
		c := &countingCollector{}
		if err := Scan(context.Background(), s, ScanOptions{Parallelism: 2, Range: &tr}, c); err != nil {
			t.Fatal(err)
		}
		results[name] = c
	}
	for name, c := range results {
		if c.total != results["rows"].total || c.daySum != results["rows"].daySum {
			t.Fatalf("%s ranged scan diverges: (%d, %d) vs rows (%d, %d)",
				name, c.total, c.daySum, results["rows"].total, results["rows"].daySum)
		}
	}
	if results["rows"].total != 2*300 {
		t.Fatalf("ranged scan saw %d records, want 600", results["rows"].total)
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
	fs, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{BlockRecords: 64})
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

// TestV2StreamSmallerThanV1: the block formats store less than the
// fixed-width record image (v1's layout, RecordSize bytes a record), and
// v3's bitpacking less than v2's varints.
func TestV2StreamSmallerThanV1(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := make([]Record, 20_000)
	base := StudyStart.UnixMilli()
	for i := range recs {
		recs[i] = randRecord(r, base+int64(i)*500)
	}
	v1 := HeaderSize + len(recs)*RecordSize
	v2 := len(encodeV2(t, recs, WriterV2Options{}))
	v3 := len(encodeV3(t, recs, WriterV3Options{}))
	if v2 >= v1 || v3 >= v2 {
		t.Fatalf("stream sizes v1 %d B, v2 %d B, v3 %d B; want strictly shrinking", v1, v2, v3)
	}
	t.Logf("bytes/record: v1 %.1f, v2 %.1f, v3 %.1f", float64(v1)/float64(len(recs)),
		float64(v2)/float64(len(recs)), float64(v3)/float64(len(recs)))
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
