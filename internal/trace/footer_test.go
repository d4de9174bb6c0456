package trace_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"telcolens/internal/devices"
	"telcolens/internal/faultfs"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
	"telcolens/internal/trace/tracetest"
)

// footerStore writes a two-day store of n records a day with blockRecords
// records per block.
func footerStore(t *testing.T, dir string, n, blockRecords int) *trace.FileStore {
	t.Helper()
	fs, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{BlockRecords: blockRecords})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for day := 0; day < 2; day++ {
		var cb trace.ColumnBatch
		for i := 0; i < n; i++ {
			cb.AppendRecord(&trace.Record{
				Timestamp: trace.DayStart(day).UnixMilli() + int64(i)*1000,
				UE:        trace.UEID(rng.Intn(300)),
				TAC:       devices.TAC(35_000_000 + rng.Intn(20)),
				Source:    topology.SectorID(rng.Intn(500)),
				Target:    topology.SectorID(rng.Intn(500)),
			})
		}
		w, err := fs.AppendPartition(day, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteColumns(&cb); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// TestFooterDamage is the store side of the footer damage matrix: a
// partition whose index footer is damaged (a flipped byte, the footer
// cut back to its trailer, a trailer length past the start of the file)
// loads no index (ErrIndexCorrupt), still scans every record, is
// reported by Verify under a data class, and is quarantined by Scrub
// while the other day keeps serving. A v3 partition, whose index was a
// sidecar file, fails to open and to verify with ErrBadVersion naming
// the format.
func TestFooterDamage(t *testing.T) {
	ctx := context.Background()
	for _, how := range tracetest.FooterDamages {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			fs := footerStore(t, dir, 700, 128)
			m, err := fs.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.PartitionIndex(m.Partitions[1]); err != nil {
				t.Fatalf("intact footer: %v", err)
			}
			if err := tracetest.DamageFooter(filepath.Join(dir, "ho_day_001.tlho"), how); err != nil {
				t.Fatal(err)
			}
			if x, err := fs.PartitionIndex(m.Partitions[1]); !errors.Is(err, trace.ErrIndexCorrupt) {
				t.Fatalf("damaged footer: index %v, err %v; want ErrIndexCorrupt", x, err)
			}
			if n, err := trace.Count(fs); err != nil || n != 1400 {
				t.Fatalf("manifest counts %d, %v", n, err)
			}
			scanned := 0
			if err := trace.ForEach(fs, func(int, *trace.Record) error { scanned++; return nil }); err != nil || scanned != 1400 {
				t.Fatalf("scan over a damaged footer saw %d records, %v; want 1400", scanned, err)
			}

			rep, err := trace.Verify(ctx, fs)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Issues) != 1 || rep.Issues[0].Day != 1 ||
				(rep.Issues[0].Class != trace.CorruptChecksum && rep.Issues[0].Class != trace.CorruptTruncated) {
				t.Fatalf("verify = %+v, want one checksum or truncated issue on day 1", rep.Issues)
			}
			res, err := trace.Scrub(ctx, fs)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Quarantined) != 1 || res.Quarantined[0] != (trace.Partition{Day: 1}) {
				t.Fatalf("quarantined %v, want day 1", res.Quarantined)
			}
			if rep, err := trace.Verify(ctx, fs); err != nil || !rep.OK() || rep.Records != 700 {
				t.Fatalf("verify after scrub = %+v, %v; want day 0 clean", rep, err)
			}
		})
	}
	t.Run("v3", func(t *testing.T) {
		dir := t.TempDir()
		fs := footerStore(t, dir, 700, 128)
		if err := tracetest.DowngradeToV3(dir); err != nil {
			t.Fatal(err)
		}
		const format = "v3 blocks with a separate index sidecar"
		_, err := fs.OpenPartition(1, 0)
		if !errors.Is(err, trace.ErrBadVersion) || !strings.Contains(err.Error(), format) {
			t.Fatalf("open of a v3 partition: err = %v, want ErrBadVersion naming %q", err, format)
		}
		_, err = trace.Verify(ctx, fs)
		if !errors.Is(err, trace.ErrBadVersion) || !strings.Contains(err.Error(), format) {
			t.Fatalf("verify of a v3 store: err = %v, want ErrBadVersion naming %q", err, format)
		}
	})
}

// TestPartitionCloseDurableOps pins what committing one partition costs
// on a store that already has a MANIFEST: one fsync of the partition
// file, then the MANIFEST's stage, fsync, rename and directory fsync.
// The index is the partition's footer, so it adds no file to stage.
func TestPartitionCloseDurableOps(t *testing.T) {
	dir := t.TempDir()
	footerStore(t, dir, 10, 0)
	ff := faultfs.NewFault(nil, faultfs.Plan{})
	fs, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.AppendPartition(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cb trace.ColumnBatch
	cb.AppendRecord(&trace.Record{Timestamp: trace.DayStart(2).UnixMilli()})
	if err := w.WriteColumns(&cb); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ops := ff.OpCounts()
	for op, want := range map[faultfs.Op]int{faultfs.OpSync: 2, faultfs.OpSyncDir: 1, faultfs.OpRename: 1, faultfs.OpOpen: 2} {
		if ops[op] != want {
			t.Errorf("%s: %d per partition close, want %d (all ops: %v)", op, ops[op], want, ops)
		}
	}
}
