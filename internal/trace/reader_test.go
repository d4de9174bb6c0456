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

// stampHeader rewrites the version and flags of every partition stream
// in fs, leaving the MANIFEST as it was: the store then
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

// TestCodecV3NextColumns: one NextColumns call hands out exactly one
// decoded block.
func TestCodecV3NextColumns(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	recs := make([]Record, 500)
	base := StudyStart.UnixMilli()
	for i := range recs {
		recs[i] = randRecord(r, base)
	}
	data := encodeV3(t, recs, WriterV3Options{BlockRecords: 128})
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
// pruning counters on a time-sorted stream.
func TestReaderSetTimeRange(t *testing.T) {
	base := StudyStart.UnixMilli()
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = sampleRecord()
		recs[i].Timestamp = base + int64(i)*1000
	}
	rd, err := NewReader(bytes.NewReader(encodeV3(t, recs, WriterV3Options{BlockRecords: 100})))
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
		t.Fatalf("%d records in range, want 100", len(got))
	}
	if got[0].Timestamp != base+250_000 || got[99].Timestamp != base+349_000 {
		t.Fatal("wrong window edges")
	}
	s := rd.ReadStats()
	// Records 250..349 span blocks 2 and 3 of ten; the other eight are
	// pruned from their descriptors alone.
	if s.BlocksRead != 2 || s.BlocksSkipped != 8 {
		t.Fatalf("stats = %+v, want 2 read / 8 skipped", s)
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
// record sequence whether the window is enforced by block pruning plus
// filtering, at two block sizes, or a row at a time (record filtering,
// rowStore).
func TestScanRangeCodecAgreement(t *testing.T) {
	small, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{BlockRecords: 50})
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewFileStore(t.TempDir())
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
		writePartition(t, small, day, 0, recs)
		writePartition(t, large, day, 0, recs)
	}
	stores := map[string]Store{"block50": small, "block4096": large, "rows": rowStore{small}}
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
	data := encodeV3(t, recs, WriterV3Options{BlockRecords: 128})
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

// TestV3StreamSmallerThanV1: v3 blocks store less than the fixed-width
// record image (v1's layout, RecordSize bytes a record).
func TestV3StreamSmallerThanV1(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := make([]Record, 20_000)
	base := StudyStart.UnixMilli()
	for i := range recs {
		recs[i] = randRecord(r, base+int64(i)*500)
	}
	v1 := HeaderSize + len(recs)*RecordSize
	v3 := len(encodeV3(t, recs, WriterV3Options{}))
	if v3 >= v1 {
		t.Fatalf("stream sizes v1 %d B, v3 %d B; want v3 smaller", v1, v3)
	}
	t.Logf("bytes/record: v1 %.1f, v3 %.1f", float64(v1)/float64(len(recs)), float64(v3)/float64(len(recs)))
}

// blocksEnd returns the offset where a stream's index footer starts,
// just after its end-of-blocks marker.
func blocksEnd(t testing.TB, data []byte) int {
	t.Helper()
	n, err := footerLen(data)
	if err != nil {
		t.Fatal(err)
	}
	return len(data) - TrailerSize - n
}

// TestReaderRejectsCorruptV3: truncations and descriptor damage of a
// small stream error out, never panic.
func TestReaderRejectsCorruptV3(t *testing.T) {
	recs := []Record{sampleRecord(), sampleRecord()}
	data := encodeV3(t, recs, WriterV3Options{})
	// Truncations anywhere before the end of the end-of-blocks marker
	// must error, never panic. The index footer after it is not the
	// block reader's: the MANIFEST's size and fingerprint catch a cut
	// there.
	for cut := HeaderSize + 1; cut < blocksEnd(t, data); cut += 3 {
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
