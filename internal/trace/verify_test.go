package trace

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"telcolens/internal/chaos"
	"telcolens/internal/faultfs"
)

func countRecords(t *testing.T, s Store) int64 {
	t.Helper()
	var n int64
	if err := ForEach(s, func(int, *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// A failed partition write must abort cleanly on Close: no partial
// .tlho on disk, no manifest entry — the store looks
// exactly as it did before the append started.
func TestFailedWriteAbortsCleanly(t *testing.T) {
	for _, rule := range []faultfs.Rule{
		{Op: faultfs.OpWrite, Path: "ho_day_001*", Kind: faultfs.KindErr, Err: faultfs.ENOSPC},
		{Op: faultfs.OpWrite, Path: "ho_day_001*", Kind: faultfs.KindTorn, After: 1},
		{Op: faultfs.OpSync, Path: "ho_day_001*", Kind: faultfs.KindErr},
	} {
		t.Run(rule.String(), func(t *testing.T) {
			dir := t.TempDir()
			clean, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			writeTestPartition(t, clean, 0, 0, 500)

			ff := faultfs.NewFault(nil, faultfs.Plan{Rules: []faultfs.Rule{rule}})
			s, err := NewFileStoreOpts(dir, FileStoreOptions{FS: ff})
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.AppendPartition(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			var failed error
			for i := 0; i < 100000 && failed == nil; i++ {
				failed = writeRecords(w, Record{Timestamp: DayStart(1).UnixMilli() + int64(i), UE: UEID(i)})
			}
			cerr := w.Close()
			if failed == nil && cerr == nil {
				t.Fatal("fault never fired")
			}
			if cerr == nil {
				t.Fatal("Close after failed write must error")
			}
			if failed != nil && !errors.Is(cerr, faultfs.ErrInjected) {
				t.Fatalf("Close error should carry the injected cause: %v", cerr)
			}

			// Old state intact, new partition gone everywhere.
			after, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := after.Partitions()
			if err != nil {
				t.Fatal(err)
			}
			if len(parts) != 1 || parts[0] != (Partition{Day: 0}) {
				t.Fatalf("partitions after abort = %v", parts)
			}
			if got := countRecords(t, after); got != 500 {
				t.Fatalf("records after abort = %d", got)
			}
			rep, err := Verify(context.Background(), after)
			if err != nil || !rep.OK() || len(rep.Orphans) != 0 {
				t.Fatalf("verify after abort: %+v, %v", rep, err)
			}
		})
	}
}

// VerifyReads must catch a bit flip that the codec structure alone
// would let through, and classify it.
func TestVerifyReadsCatchesBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s, 0, 0, 2000)

	// Flip one bit in the middle of the stored payload.
	path := filepath.Join(dir, "ho_day_000.tlho")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	vs, err := NewFileStoreOpts(dir, FileStoreOptions{VerifyReads: true})
	if err != nil {
		t.Fatal(err)
	}
	it, err := vs.OpenPartition(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	_, scanErr := readRecords(it)
	if scanErr == nil {
		t.Fatal("verified read of a flipped stream must fail")
	}
	var ce *CorruptionError
	if !errors.As(scanErr, &ce) {
		// A mid-payload flip may also surface as a codec decode error
		// before the fingerprint check runs; classification happens at
		// the scan layer then. Accept checksum sentinel only when the
		// error is a CorruptionError.
		t.Fatalf("error not classified: %v", scanErr)
	}
	if ce.Class != CorruptChecksum && ce.Class != CorruptDecode {
		t.Fatalf("class = %s", ce.Class)
	}
}

// VerifyReads over an intact store is invisible: same records, no
// error.
func TestVerifyReadsCleanPass(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s, 0, 0, 1000)
	writeTestPartition(t, s, 1, 0, 1000)
	vs, err := NewFileStoreOpts(dir, FileStoreOptions{VerifyReads: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := countRecords(t, vs); got != 2000 {
		t.Fatalf("records = %d", got)
	}
}

// Scrub must quarantine a corrupted day, rewrite the manifest to the
// survivors, and leave the rest of the store serving.
func TestScrubQuarantinesCorruptPartition(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		writeTestPartition(t, s, day, 0, 300)
	}

	// Corrupt day 1 (truncate) behind the store's back.
	path := filepath.Join(dir, "ho_day_001.tlho")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Issues) != 1 || rep.Issues[0].Class != CorruptTruncated {
		t.Fatalf("verify report = %+v", rep)
	}

	res, err := Scrub(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != (Partition{Day: 1}) {
		t.Fatalf("quarantined = %v", res.Quarantined)
	}

	// The bad partition moved to quarantine/.
	if _, err := os.Stat(filepath.Join(dir, QuarantineDirName, "ho_day_001.tlho")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt partition still in store: %v", err)
	}
	recs, err := LoadQuarantine(nil, dir)
	if err != nil || len(recs) != 1 || recs[0].Day != 1 || recs[0].Class != CorruptTruncated {
		t.Fatalf("quarantine log = %+v, %v", recs, err)
	}
	if days := QuarantinedDays(recs); len(days) != 1 || days[0] != 1 {
		t.Fatalf("quarantined days = %v", days)
	}

	// Survivors serve: days 0 and 2 scan clean.
	parts, err := s.Partitions()
	if err != nil || len(parts) != 2 || parts[0] != (Partition{Day: 0}) || parts[1] != (Partition{Day: 2}) {
		t.Fatalf("partitions after scrub = %v, %v", parts, err)
	}
	if got := countRecords(t, s); got != 600 {
		t.Fatalf("surviving records = %d", got)
	}
	rep2, err := Verify(context.Background(), s)
	if err != nil || !rep2.OK() {
		t.Fatalf("store not clean after scrub: %+v, %v", rep2, err)
	}
}

// A partition whose bytes match its MANIFEST entry but whose header
// names a format this package does not read is intact data, not
// corruption: Verify and Scrub fail with an error naming the partition
// and the format, and the directory tree is left exactly as it was.
// The same header flipped behind the store's back is still quarantined,
// because the fingerprint check runs first.
func TestScrubKeepsUnreadableFormat(t *testing.T) {
	for _, c := range []struct {
		name           string
		version, flags uint16
		format         string
	}{
		{"v1", 1, 0, "v1 fixed-width records"},
		{"v2", 2, 0, "v2 varint-coded blocks"},
		{"v2flate", 2, 1, "v2 with flate-compressed blocks"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for day := 0; day < 3; day++ {
				writeTestPartition(t, s, day, 0, 300)
			}
			stampPartition(t, s, Partition{Day: 1}, c.version, c.flags)
			// Re-record day 1's fingerprint, as the writer of that format
			// would have.
			m, err := s.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			pi, _ := m.Lookup(Partition{Day: 1})
			data, err := os.ReadFile(filepath.Join(dir, "ho_day_001.tlho"))
			if err != nil {
				t.Fatal(err)
			}
			d := newPartitionDigest()
			d.observeBytes(data)
			pi.Fingerprint = d.hash
			if err := s.notePartitionClosed(pi); err != nil {
				t.Fatal(err)
			}

			before, err := chaos.TreeDigest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Verify(context.Background(), s); !errors.Is(err, ErrBadVersion) ||
				!strings.Contains(err.Error(), c.format) || !strings.Contains(err.Error(), "telcogen") {
				t.Fatalf("verify: err = %v, want ErrBadVersion naming %q and telcogen", err, c.format)
			}
			_, err = Scrub(context.Background(), s)
			if !errors.Is(err, ErrBadVersion) || !strings.Contains(err.Error(), "day 1 shard 0") ||
				!strings.Contains(err.Error(), c.format) {
				t.Fatalf("scrub: err = %v, want ErrBadVersion naming day 1 shard 0 and %q", err, c.format)
			}
			after, err := chaos.TreeDigest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if diff := chaos.DiffTrees(before, after); diff != "" {
				t.Fatalf("scrub changed the store: %s", diff)
			}

			// Flipped behind the store's back: the fingerprint no longer
			// matches, so this is corruption and day 1 is quarantined.
			stampPartition(t, s, Partition{Day: 1}, c.version, c.flags^4)
			res, err := Scrub(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Quarantined) != 1 || res.Quarantined[0] != (Partition{Day: 1}) ||
				res.Report.Issues[0].Class != CorruptChecksum {
				t.Fatalf("scrub of a flipped header: %+v", res)
			}
		})
	}
}

// A manifest entry whose file vanished stays listed until Scrub drops
// it, after which the survivors read clean.
func TestScrubDropsMissingEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s, 0, 0, 100)
	writeTestPartition(t, s, 1, 0, 100)
	if err := os.Remove(filepath.Join(dir, "ho_day_001.tlho")); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Manifest(); err != nil || len(m.Partitions) != 2 {
		t.Fatalf("manifest before scrub = %+v, %v; want both entries", m, err)
	}
	res, err := Scrub(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EntriesDropped) != 1 {
		t.Fatalf("scrub result = %+v", res)
	}
	m, err := s.Manifest()
	if err != nil || len(m.Partitions) != 1 {
		t.Fatalf("manifest after scrub: %+v, %v", m, err)
	}
	if got := countRecords(t, s); got != 100 {
		t.Fatalf("records after scrub = %d", got)
	}
}

// The manifest write path must go through the atomic-publish
// discipline: a failed rename leaves the previous MANIFEST intact.
func TestManifestRenameFailureKeepsOldManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestPartition(t, s, 0, 0, 100)

	ff := faultfs.NewFault(nil, faultfs.Plan{Rules: []faultfs.Rule{
		{Op: faultfs.OpRename, Path: ManifestName, Kind: faultfs.KindErr},
	}})
	fs2, err := NewFileStoreOpts(dir, FileStoreOptions{FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs2.AppendPartition(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRecords(w, Record{Timestamp: DayStart(1).UnixMilli()}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Close should surface the manifest publish failure: %v", err)
	}
	// Old state intact: one partition, manifest still usable.
	after, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := after.Manifest()
	if err != nil || len(m.Partitions) != 1 {
		t.Fatalf("manifest after failed publish: %+v, %v", m, err)
	}
}
