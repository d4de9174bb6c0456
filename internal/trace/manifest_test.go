package trace

import (
	"os"
	"path/filepath"
	"testing"
)

// manifestTestRecord builds a deterministic record for partition tests.
func manifestTestRecord(day int, i int) Record {
	ts := DayStart(day).UnixMilli() + int64(i)*1000
	rec := Record{
		Timestamp:  ts,
		UE:         UEID(i % 17),
		TAC:        1000,
		Source:     1,
		Target:     2,
		SourceRAT:  3,
		TargetRAT:  3,
		DurationMs: float32(i%50) + 0.5,
	}
	if i%5 == 0 {
		rec.Result = Failure
		rec.Cause = 3
	}
	return rec
}

func writeTestPartition(t *testing.T, s Store, day, shard, n int) {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = manifestTestRecord(day, i)
	}
	writePartition(t, s, day, shard, recs)
}

func testManifestLifecycle(t *testing.T, s Store) {
	t.Helper()
	mr := s.(ManifestReader)

	writeTestPartition(t, s, 0, 0, 40)
	writeTestPartition(t, s, 0, 1, 25)
	m, err := mr.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no manifest after writes")
	}
	if len(m.Partitions) != 2 {
		t.Fatalf("manifest lists %d partitions, want 2", len(m.Partitions))
	}
	if m.Gen == 0 {
		t.Fatal("manifest generation not advanced")
	}
	if got := m.TotalRecords(); got != 65 {
		t.Fatalf("TotalRecords = %d, want 65", got)
	}
	p0 := m.Partitions[0]
	if p0.Day != 0 || p0.Shard != 0 || p0.Records != 40 {
		t.Fatalf("entry 0 = %+v", p0)
	}
	wantMin := DayStart(0).UnixMilli()
	wantMax := wantMin + 39*1000
	if p0.MinTS != wantMin || p0.MaxTS != wantMax {
		t.Fatalf("entry 0 extents [%d, %d], want [%d, %d]", p0.MinTS, p0.MaxTS, wantMin, wantMax)
	}
	if p0.Fingerprint == 0 || p0.Fingerprint == m.Partitions[1].Fingerprint {
		t.Fatalf("fingerprints not content-derived: %x vs %x", p0.Fingerprint, m.Partitions[1].Fingerprint)
	}

	// Since diffing: a new day shows up as exactly the delta.
	gen := m.Gen
	writeTestPartition(t, s, 1, 0, 10)
	delta, newGen, err := Since(s, gen)
	if err != nil {
		t.Fatal(err)
	}
	if newGen <= gen {
		t.Fatalf("generation did not advance: %d -> %d", gen, newGen)
	}
	if len(delta) != 1 || delta[0].Day != 1 || delta[0].Records != 10 {
		t.Fatalf("Since(%d) = %+v, want the one new partition", gen, delta)
	}
	if d, _, err := Since(s, newGen); err != nil || len(d) != 0 {
		t.Fatalf("Since(current) = %v, %v; want empty", d, err)
	}

	// Count answers from the manifest.
	n, err := Count(s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 75 {
		t.Fatalf("Count = %d, want 75", n)
	}
	days, err := s.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 2 || days[0] != 0 || days[1] != 1 {
		t.Fatalf("Days = %v", days)
	}
}

func TestFileStoreManifest(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testManifestLifecycle(t, s)
}

func TestMemStoreManifest(t *testing.T) {
	testManifestLifecycle(t, NewMemStore())
}

// TestCountUsesManifestNotFiles proves Count answers from the manifest
// without opening partition files: the file contents are destroyed
// behind the manifest's back, and Count still reports the recorded
// total (while a store whose MANIFEST is deleted falls back to the
// streaming pass and fails on the corrupt file).
func TestCountUsesManifestNotFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s, 0, 0, 30)
	path := filepath.Join(dir, "ho_day_000.tlho")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Count(s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("Count = %d, want 30 from manifest", n)
	}
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(s); err == nil {
		t.Fatal("Count without manifest decoded a corrupt partition without error")
	}
}

// TestManifestStaleAfterExternalChange: partition files added or removed
// behind the store's back invalidate the manifest (callers fall back to
// listing), instead of serving a stale index.
func TestManifestStaleAfterExternalChange(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s, 0, 0, 5)
	writeTestPartition(t, s, 1, 0, 5)
	if err := os.Remove(filepath.Join(dir, "ho_day_001.tlho")); err != nil {
		t.Fatal(err)
	}
	m, err := s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatalf("stale manifest served after external delete: %+v", m)
	}
	if _, _, err := Since(s, 0); err == nil {
		t.Fatal("Since served a stale manifest")
	}
}

// TestManifestFingerprintTracksContent: rewriting a partition with
// different content (fresh directory, same layout) changes its
// fingerprint, and identical content reproduces it exactly.
func TestManifestFingerprintTracksContent(t *testing.T) {
	fp := func(n int) uint64 {
		s, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		writeTestPartition(t, s, 0, 0, n)
		m, err := s.Manifest()
		if err != nil || m == nil {
			t.Fatalf("manifest: %v %v", m, err)
		}
		return m.Partitions[0].Fingerprint
	}
	a, b, c := fp(20), fp(21), fp(20)
	if a == b {
		t.Fatalf("different content, same fingerprint %x", a)
	}
	if a != c {
		t.Fatalf("identical content, different fingerprints %x vs %x", a, c)
	}
}

// TestManifestSharedAcrossInstances: two FileStore handles on one
// directory fold their closes into one MANIFEST.
func TestManifestSharedAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s1, 0, 0, 3)
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s2, 1, 0, 4)
	m, err := s1.Manifest()
	if err != nil || m == nil {
		t.Fatalf("manifest: %v %v", m, err)
	}
	if len(m.Partitions) != 2 || m.TotalRecords() != 7 {
		t.Fatalf("manifest = %+v", m)
	}
}

// TestManifestBackfillsLegacyPartitions: appending to a directory whose
// partitions predate the manifest (MANIFEST missing) rebuilds entries
// for the legacy files by reading them once, so the index becomes
// usable again instead of permanently disagreeing with the listing.
func TestManifestBackfillsLegacyPartitions(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s1, 0, 0, 12)
	m, err := s1.Manifest()
	if err != nil || m == nil {
		t.Fatalf("manifest: %v %v", m, err)
	}
	legacyFP := m.Partitions[0].Fingerprint
	// Simulate a campaign written before the store kept a manifest.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s2, 1, 0, 5)
	m, err = s2.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("manifest unusable after appending to a legacy directory")
	}
	if len(m.Partitions) != 2 || m.TotalRecords() != 17 {
		t.Fatalf("backfilled manifest = %+v", m)
	}
	got, ok := m.Lookup(Partition{Day: 0})
	if !ok || got.Records != 12 || got.Fingerprint != legacyFP {
		t.Fatalf("backfilled entry = %+v (ok=%v), want 12 records with fingerprint %x", got, ok, legacyFP)
	}
	if got.MinTS != DayStart(0).UnixMilli() {
		t.Fatalf("backfilled MinTS = %d", got.MinTS)
	}
}

// TestScanPartitionSubset: ScanOptions.Partitions restricts the scan to
// exactly the requested partitions.
func TestScanPartitionSubset(t *testing.T) {
	s := NewMemStore()
	writeTestPartition(t, s, 0, 0, 10)
	writeTestPartition(t, s, 1, 0, 20)
	writeTestPartition(t, s, 2, 0, 30)

	var m ScanMetrics
	col := &subsetCollector{}
	opts := ScanOptions{
		Partitions: []Partition{{Day: 2}, {Day: 1}}, // normalized to canonical order
		Metrics:    &m,
	}
	if err := Scan(t.Context(), s, opts, col); err != nil {
		t.Fatal(err)
	}
	if col.total != 50 {
		t.Fatalf("subset scan saw %d records, want 50", col.total)
	}
	if got := m.Partitions.Load(); got != 2 {
		t.Fatalf("subset scan opened %d partitions, want 2", got)
	}
	if len(col.days) != 2 || col.days[0] != 1 || col.days[1] != 2 {
		t.Fatalf("merged days %v, want [1 2]", col.days)
	}
}

// subsetCollector counts records per day, recording merge order.
type subsetCollector struct {
	total int64
	days  []int
}

type subsetShard struct {
	day int
	n   int64
}

func (c *subsetCollector) NewShardState(day, shard int) ShardState {
	return &subsetShard{day: day}
}

func (s *subsetShard) ObserveColumns(day int, cb *ColumnBatch) error {
	s.n += int64(cb.Len())
	return nil
}

func (c *subsetCollector) MergeShard(st ShardState) error {
	s := st.(*subsetShard)
	c.total += s.n
	c.days = append(c.days, s.day)
	return nil
}
