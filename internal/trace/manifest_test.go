package trace

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"telcolens/internal/chaos"
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

func writeTestPartition(t testing.TB, s Store, day, shard, n int) {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = manifestTestRecord(day, i)
	}
	writePartition(t, s, day, shard, recs)
}

func testManifestLifecycle(t *testing.T, s Store) {
	t.Helper()
	if m, err := s.Manifest(); err != nil || m.Gen != 0 || len(m.Partitions) != 0 {
		t.Fatalf("empty store manifest = %+v, %v; want Gen 0 and no entries", m, err)
	}

	writeTestPartition(t, s, 0, 0, 40)
	writeTestPartition(t, s, 0, 1, 25)
	m, err := s.Manifest()
	if err != nil {
		t.Fatal(err)
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

	// A new day advances the generation and is the only entry stamped
	// after the old one.
	gen := m.Gen
	writeTestPartition(t, s, 1, 0, 10)
	m, err = s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Gen <= gen {
		t.Fatalf("generation did not advance: %d -> %d", gen, m.Gen)
	}
	for _, pi := range m.Partitions {
		if newer, isNew := pi.Gen > gen, pi.Day == 1; newer != isNew {
			t.Fatalf("entry %+v stamped at gen %d, old generation %d", pi.Partition(), pi.Gen, gen)
		}
	}
	if pi, ok := m.Lookup(Partition{Day: 1}); !ok || pi.Records != 10 {
		t.Fatalf("new entry = %+v (ok=%v), want 10 records", pi, ok)
	}

	// Count answers from the manifest.
	n, err := Count(s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 75 {
		t.Fatalf("Count = %d, want 75", n)
	}
	parts, err := s.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 || parts[2] != (Partition{Day: 1}) {
		t.Fatalf("Partitions = %v", parts)
	}
}

func TestFileStoreManifest(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testManifestLifecycle(t, s)
}

// TestCountUsesManifestNotFiles proves Count answers from the manifest
// without opening partition files: the file contents are destroyed
// behind the manifest's back, and Count still reports the recorded
// total (while a store whose MANIFEST is deleted is refused with
// ErrNoManifest).
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
	if _, err := Count(s); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("Count without manifest: err = %v, want ErrNoManifest", err)
	}
}

// TestManifestStaleAfterExternalChange: a partition file deleted behind
// the store's back leaves the MANIFEST as written. The entry stays
// listed, reading it fails, and Verify reports it as Missing.
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
	if len(m.Partitions) != 2 {
		t.Fatalf("manifest after external delete = %+v, want both entries", m.Partitions)
	}
	if _, err := s.OpenPartition(1, 0); err == nil {
		t.Fatal("missing partition opened")
	}
	if err := Scan(context.Background(), s, ScanOptions{}, &subsetCollector{}); err == nil {
		t.Fatal("scan over a missing partition succeeded")
	}
	rep, err := Verify(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != (Partition{Day: 1}) || rep.OK() {
		t.Fatalf("verify = %+v, want day 1 missing", rep)
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
		if err != nil {
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
	if err != nil {
		t.Fatalf("manifest: %v %v", m, err)
	}
	if len(m.Partitions) != 2 || m.TotalRecords() != 7 {
		t.Fatalf("manifest = %+v", m)
	}
}

// TestFirstWriteOfFreshDirectory: while the first partition of a fresh
// directory is being written, another FileStore over it sees an empty
// store (Gen 0), not a pre-MANIFEST campaign. The commit is Gen 1, so a
// finished MANIFEST is what it was before the empty one was written.
func TestFirstWriteOfFreshDirectory(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := writer.AppendPartition(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRecords(w, manifestTestRecord(0, 0)); err != nil {
		t.Fatal(err)
	}
	reader, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := reader.Manifest(); err != nil || m.Gen != 0 || len(m.Partitions) != 0 {
		t.Fatalf("Manifest during the first write = %+v, %v; want an empty store", m, err)
	}
	if parts, err := reader.Partitions(); err != nil || len(parts) != 0 {
		t.Fatalf("Partitions during the first write = %v, %v; want none", parts, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := reader.Manifest()
	if err != nil || m.Gen != 1 || len(m.Partitions) != 1 || m.Partitions[0].Gen != 1 {
		t.Fatalf("Manifest after the first commit = %+v, %v; want Gen 1 with one entry", m, err)
	}
}

// TestManifestRefusesPreManifestDirectory: a directory whose partition
// files have no MANIFEST (a campaign written before the store kept one)
// is refused with ErrNoManifest, naming telcogen, on every path: reads,
// a writer's close (an append lands nothing) and Verify. It is neither
// read as empty nor backfilled, and Scrub moves nothing.
func TestManifestRefusesPreManifestDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s, 0, 0, 12)
	w, err := s.AppendPartition(1, 0) // open across the MANIFEST's removal
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNoManifest) || !strings.Contains(err.Error(), "telcogen") {
			t.Fatalf("%s: err = %v, want ErrNoManifest naming telcogen", what, err)
		}
	}
	if err := writeRecords(w, manifestTestRecord(1, 0)); err != nil {
		t.Fatal(err)
	}
	refused("close", w.Close())
	if _, err := os.Stat(filepath.Join(dir, "ho_day_001.tlho")); !os.IsNotExist(err) {
		t.Fatalf("refused close left its partition file: %v", err)
	}

	before, err := chaos.TreeDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Manifest()
	refused("Manifest", err)
	_, err = s.Partitions()
	refused("Partitions", err)
	_, err = Count(s)
	refused("Count", err)
	refused("Scan", Scan(context.Background(), s, ScanOptions{}, &subsetCollector{}))
	w, err = s.AppendPartition(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	refused("append", w.Close())
	_, err = Verify(context.Background(), s)
	refused("Verify", err)
	_, err = Scrub(context.Background(), s)
	refused("Scrub", err)
	after, err := chaos.TreeDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if diff := chaos.DiffTrees(before, after); diff != "" {
		t.Fatalf("refused store changed: %s", diff)
	}
}

// TestDiscardFromRemovesDebris: DiscardFrom deletes every partition of
// the given day or later, listed or not, and drops
// the listed ones from the MANIFEST in one rewrite.
func TestDiscardFromRemovesDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		writeTestPartition(t, s, day, 0, 10)
	}
	writeTestPartition(t, s, 1, 1, 10)
	// An unlisted day-3 file, as a crash between landing the file and
	// committing it leaves behind.
	data, err := os.ReadFile(filepath.Join(dir, "ho_day_002.tlho"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ho_day_003.tlho"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	removed, err := s.DiscardFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Partition{{1, 0}, {1, 1}, {2, 0}, {3, 0}}
	if len(removed) != len(want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	for i := range want {
		if removed[i] != want[i] {
			t.Fatalf("removed %v, want %v", removed, want)
		}
	}
	m, err := s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Partitions) != 1 || m.Partitions[0].Day != 0 || m.Gen != before.Gen+1 {
		t.Fatalf("manifest after discard = %+v (gen %d before)", m, before.Gen)
	}
	for _, name := range []string{"ho_day_001.tlho", "ho_day_001_s001.tlho", "ho_day_002.tlho", "ho_day_003.tlho"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s survived DiscardFrom: %v", name, err)
		}
	}
	rep, err := Verify(context.Background(), s)
	if err != nil || !rep.OK() || len(rep.Orphans) != 0 || rep.Partitions != 1 {
		t.Fatalf("verify after discard = %+v, %v", rep, err)
	}
	// Nothing at or after the day: no rewrite.
	if _, err := s.DiscardFrom(1); err != nil {
		t.Fatal(err)
	}
	if again, err := s.Manifest(); err != nil || again.Gen != m.Gen {
		t.Fatalf("idempotent discard rewrote the manifest: %+v, %v", again, err)
	}
}

// TestDiscardFromWithoutManifest: a crash before the first MANIFEST
// write leaves a partition file and no MANIFEST. The store refuses to
// read it, and debris removal clears it, leaving an empty store.
func TestDiscardFromWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s, 0, 0, 10)
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Manifest(); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("manifest: err = %v, want ErrNoManifest", err)
	}
	removed, err := s.DiscardFrom(0)
	if err != nil || len(removed) != 1 {
		t.Fatalf("DiscardFrom = %v, %v", removed, err)
	}
	m, err := s.Manifest()
	if err != nil || m.Gen != 0 || len(m.Partitions) != 0 {
		t.Fatalf("manifest after discard = %+v, %v; want an empty store", m, err)
	}
	writeTestPartition(t, s, 0, 0, 4)
	if n, err := Count(s); err != nil || n != 4 {
		t.Fatalf("Count after re-landing = %d, %v", n, err)
	}
}

// TestScanPartitionSubset: ScanOptions.Partitions restricts the scan to
// exactly the requested partitions.
func TestScanPartitionSubset(t *testing.T) {
	s := tempStore(t)
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
