package analysis

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// The incremental acceptance bar: an analyzer checkpointed on a partial
// campaign, resumed after more days landed, and Refreshed — scanning
// only the new partitions — must render every experiment byte-identical
// to a cold full scan of the final store. Run with -race (make race and
// the CI determinism job do) to double as the engine's concurrency check.

const incTotalDays = 6

// incDataset generates the first `days` days of the incremental test
// campaign into a file store.
func incDataset(t *testing.T, dir string, days, shards int) *simulate.Dataset {
	t.Helper()
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(detSeed)
	cfg.UEs = detUEs
	cfg.Days = days
	cfg.Shards = shards
	cfg.Store = fs
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestIncrementalEqualsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("generates several campaigns")
	}
	// Split points: one day in, mid-campaign, and all-but-last.
	for _, split := range []int{1, incTotalDays / 2, incTotalDays - 1} {
		t.Run(fmt.Sprintf("split=%d", split), func(t *testing.T) {
			const shards = 2
			ds := incDataset(t, t.TempDir(), split, shards)

			// Warm the full scan state on the partial store and checkpoint
			// it. (Require rather than renderAll: some experiments
			// legitimately refuse very short windows, e.g. the 1-day split
			// has too few nights for home detection.)
			warm, err := New(ds, WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Require(context.Background(), NeedAll); err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := warm.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}

			// The campaign grows: the remaining days land in the store.
			if err := ds.GenerateDays(incTotalDays - split); err != nil {
				t.Fatal(err)
			}

			// Cold full-scan baseline over the final store.
			cold, err := New(ds, WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			want := renderAll(t, cold)

			for _, par := range []int{1, 8} {
				t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
					a, err := ResumeAnalyzer(ds, bytes.NewReader(ckpt.Bytes()), WithParallelism(par))
					if err != nil {
						t.Fatal(err)
					}
					res, err := a.Refresh(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if res.FullRescan {
						t.Fatal("append-only growth triggered a full rescan")
					}
					wantParts := (incTotalDays - split) * shards
					if res.PartitionsScanned != wantParts {
						t.Fatalf("Refresh scanned %d partitions, want %d (only the new days)",
							res.PartitionsScanned, wantParts)
					}
					// The scan metrics double-check it: the resumed analyzer
					// never touched the checkpoint-covered partitions.
					if st := a.ScanStats(); st.Partitions != int64(wantParts) {
						t.Fatalf("ScanStats.Partitions = %d after Refresh, want %d",
							st.Partitions, wantParts)
					}
					if res.Days != incTotalDays {
						t.Fatalf("Refresh reports %d days, want %d", res.Days, incTotalDays)
					}
					compareArtifacts(t, fmt.Sprintf("incremental-split%d-par%d", split, par),
						want, renderAll(t, a))
				})
			}
		})
	}
}

// TestRefreshInPlace: the same analyzer instance survives its dataset
// growing in place (no checkpoint round-trip): Refresh grows the live
// collectors to the larger study window and merges only the new days.
func TestRefreshInPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	const split, shards = 2, 2
	ds := incDataset(t, t.TempDir(), split, shards)
	a, err := New(ds, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	renderAll(t, a)
	before := a.ScanStats().Partitions

	if err := ds.GenerateDays(incTotalDays - split); err != nil {
		t.Fatal(err)
	}
	res, err := a.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.FullRescan {
		t.Fatal("append-only growth triggered a full rescan")
	}
	wantParts := (incTotalDays - split) * shards
	if res.PartitionsScanned != wantParts {
		t.Fatalf("Refresh scanned %d partitions, want %d", res.PartitionsScanned, wantParts)
	}
	if got := a.ScanStats().Partitions - before; got != int64(wantParts) {
		t.Fatalf("Refresh read %d partitions per ScanStats, want %d", got, wantParts)
	}

	cold, err := New(ds, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	compareArtifacts(t, "refresh-in-place", renderAll(t, cold), renderAll(t, a))
}

// TestRefreshGrowsInPlace: a campaign that lands one day at a time into
// its declared window, as a streamed feed does, keeps every live
// collector. Each Refresh grows the same collector objects, and after
// every day the artifacts and the checkpoint bytes equal a cold
// analyzer's.
func TestRefreshGrowsInPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	const window, shards = 4, 2
	fs, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(detSeed)
	cfg.UEs, cfg.Days, cfg.WindowDays, cfg.Shards, cfg.Store = detUEs, 0, window, shards, fs
	ds, err := simulate.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := New(ds, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Require(ctx, NeedAll); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= window; day++ {
		before := maps.Clone(a.cols)
		if err := ds.GenerateDays(1); err != nil {
			t.Fatal(err)
		}
		res, err := a.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.FullRescan || res.PartitionsScanned != shards || res.Days != day {
			t.Fatalf("day %d: refresh %+v, want %d partitions merged in place", day, *res, shards)
		}
		for n, col := range before {
			if a.cols[n] != col {
				t.Fatalf("day %d: the collector for %b was replaced", day, n)
			}
		}
		cold, err := New(ds, WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		compareArtifacts(t, fmt.Sprintf("grown-to-day%d", day), renderAll(t, cold), renderAll(t, a))
		var grown, want bytes.Buffer
		if err := a.Checkpoint(&grown); err != nil {
			t.Fatal(err)
		}
		if err := cold.Checkpoint(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(grown.Bytes(), want.Bytes()) {
			t.Fatalf("day %d: the grown analyzer's checkpoint differs from a cold one", day)
		}
	}
}

// TestRefreshNoChange: refreshing an up-to-date analyzer scans nothing.
func TestRefreshNoChange(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ds := incDataset(t, t.TempDir(), 2, 1)
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Require(context.Background(), NeedAll); err != nil {
		t.Fatal(err)
	}
	before := a.ScanStats()
	res, err := a.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsScanned != 0 || res.FullRescan {
		t.Fatalf("no-op refresh reported %+v", res)
	}
	if after := a.ScanStats(); after.Scans != before.Scans {
		t.Fatalf("no-op refresh ran a scan (%d -> %d)", before.Scans, after.Scans)
	}
}

// TestRefreshFullRescanOnDivergence: a store that changed in a
// non-append way (here: a partition quarantined by Scrub) rebuilds the
// state from scratch and still matches a cold run.
func TestRefreshFullRescanOnDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	dir := t.TempDir()
	ds := incDataset(t, dir, 3, 1)
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	renderAll(t, a)

	// Corrupt day 1 and let Scrub quarantine it: the generation bumps and
	// the coverage loses a partition in its middle.
	if err := os.WriteFile(filepath.Join(dir, "ho_day_001.tlho"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	scrub, err := trace.Scrub(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(scrub.Quarantined) != 1 {
		t.Fatalf("scrub quarantined %v, want day 1", scrub.Quarantined)
	}
	res, err := a.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullRescan {
		t.Fatal("shrunken store did not trigger a full rescan")
	}

	// A cold analyzer over the scrubbed store must agree. Day 1 still
	// exists in the dataset config; it just has no partitions.
	cold, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	compareArtifacts(t, "full-rescan", renderAll(t, cold), renderAll(t, a))
}

// TestQuarantineSkipsOnlyItsDay: a scrub quarantines day 1 shard 0 of a
// 3-day, 2-shard campaign (telcogen -seed 7 -ues 200 -days 3 -shards 2).
// Day 1 is left incomplete, so the coverage skips it, but it must still
// cover the intact day 2: the scan reads days 0 and 2 and every one of
// their records.
func TestQuarantineSkipsOnlyItsDay(t *testing.T) {
	dir := t.TempDir()
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(7)
	cfg.UEs, cfg.Days, cfg.Shards, cfg.Store = 200, 3, 2, fs
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ho_day_001.tlho"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	scrub, err := trace.Scrub(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(scrub.Quarantined) != 1 || scrub.Quarantined[0].Day != 1 || scrub.Quarantined[0].Shard != 0 {
		t.Fatalf("scrub quarantined %v, want day 1 shard 0", scrub.Quarantined)
	}
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Scan(context.Background()); err != nil {
		t.Fatal(err)
	}
	var days []int
	for _, pi := range a.covered {
		days = append(days, pi.Day)
	}
	if !slices.Equal(days, []int{0, 0, 2, 2}) {
		t.Fatalf("covered days %v, want both shards of days 0 and 2", days)
	}
	if n, _ := a.Covered(); n != 4 {
		t.Fatalf("Covered() = %d partitions, want 4", n)
	}
	want := ds.DayStats[0].Handovers + ds.DayStats[2].Handovers
	if got := a.ScanStats().Records; got != want {
		t.Fatalf("scanned %d records, want days 0 and 2's %d", got, want)
	}
}

// TestResumeRejectsWrongCampaign: a checkpoint only resumes against the
// campaign it was taken from.
func TestResumeRejectsWrongCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two campaigns")
	}
	ds := incDataset(t, t.TempDir(), 1, 1)
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Require(context.Background(), NeedTypes); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := a.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	otherCfg := simulate.DefaultConfig(detSeed + 1)
	otherCfg.UEs = detUEs
	otherCfg.Days = 1
	otherCfg.Store = tempStore(t)
	other, err := simulate.Generate(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeAnalyzer(other, bytes.NewReader(ckpt.Bytes())); err == nil {
		t.Fatal("checkpoint resumed against a different campaign")
	}

	// Corruption must be caught by the checksum.
	bad := append([]byte(nil), ckpt.Bytes()...)
	bad[len(bad)/2] ^= 0x40
	if _, err := ResumeAnalyzer(ds, bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
}

// streamedAnalyzer builds the detSeed world with a declared window and
// no day yet, lands the first days, and scans them cold.
func streamedAnalyzer(t *testing.T, window, first int) (*simulate.Dataset, *Analyzer) {
	t.Helper()
	fs, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(detSeed)
	cfg.UEs, cfg.Days, cfg.WindowDays, cfg.Shards, cfg.Store = detUEs, 0, window, 2, fs
	ds, err := simulate.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.GenerateDays(first); err != nil {
		t.Fatal(err)
	}
	a, err := New(ds, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Require(context.Background(), NeedAll); err != nil {
		t.Fatal(err)
	}
	return ds, a
}

// refreshDay lands one more day and merges it into a in place.
func refreshDay(t *testing.T, ds *simulate.Dataset, a *Analyzer) {
	t.Helper()
	if err := ds.GenerateDays(1); err != nil {
		t.Fatal(err)
	}
	res, err := a.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.FullRescan {
		t.Fatal("a landed day triggered a full rescan")
	}
}

// distsOf lists a state's duration distributions.
func distsOf(s *scanState) []*durDist {
	return append(s.durSuccess[:], s.durCause[:]...)
}

// readDists is what the experiments read of each distribution: its
// count, median and p95, and 24 ECDF points.
func readDists(ds []*durDist) [][]float64 {
	var out [][]float64
	for _, d := range ds {
		row := append([]float64{float64(d.N())}, d.Quantiles(0.5, 0.95)...)
		if e, err := d.ECDF(); err == nil {
			xs, fs := e.Points(24)
			row = append(append(row, xs...), fs...)
		}
		out = append(out, row)
	}
	return out
}

// TestGenerationDistributionsSurviveRefresh: a generation's duration
// distributions are values. 8 goroutines read every distribution of a
// generation while the live analyzer refreshes twice (under -race, the
// check that the refresh writes nothing they read); each reads what the
// generation held when it was taken, and the live analyzer's next
// generation reads its refreshed histograms.
func TestGenerationDistributionsSurviveRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ds, a := streamedAnalyzer(t, 5, 2)
	g, err := a.Generation()
	if err != nil {
		t.Fatal(err)
	}
	dists := distsOf(g.state)
	want := readDists(dists)
	const readers = 8
	got := make([][][]float64, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				got[r] = readDists(dists)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	refreshDay(t, ds, a)
	refreshDay(t, ds, a)
	close(stop)
	wg.Wait()
	for r := range got {
		if !reflect.DeepEqual(got[r], want) {
			t.Fatalf("reader %d: the refreshes reached the earlier generation's distributions", r)
		}
	}
	next, err := a.Generation()
	if err != nil {
		t.Fatal(err)
	}
	c := a.cols[NeedDurations].(*durationsCollector)
	var live []*durDist
	for i := range c.durSuccess {
		live = append(live, c.durSuccess[i].dist())
	}
	for i := range c.durCause {
		live = append(live, c.durCause[i].dist())
	}
	refreshed := readDists(distsOf(next.state))
	if !reflect.DeepEqual(refreshed, readDists(live)) {
		t.Fatal("the refreshed generation does not read the live histograms")
	}
	if reflect.DeepEqual(refreshed, want) {
		t.Fatal("two landed days moved no distribution; the test exercises nothing")
	}
}
