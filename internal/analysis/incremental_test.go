package analysis

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
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

// durationSamplers lists the durations collector's samplers.
func durationSamplers(a *Analyzer) []*sampler {
	c := a.cols[NeedDurations].(*durationsCollector)
	return append(c.durSuccess[:], c.durCause[:]...)
}

// generationViews takes a generation of a and lists its duration views.
func generationViews(t *testing.T, a *Analyzer) (*Analyzer, []*sampleView) {
	t.Helper()
	g, err := a.Generation()
	if err != nil {
		t.Fatal(err)
	}
	return g, append(g.state.durSuccess[:], g.state.durCause[:]...)
}

// TestSortedSamplesConcurrentFirstUse: finalize publishes a copy of each
// duration sampler's values, unsorted, and a generation shares it; the
// experiments, running concurrently on the generation, sort each view on
// first use. After a cold scan and after a one-day refresh, 8 goroutines
// reading every view of a generation at once must all get the same
// slice, the sorted values. The live analyzer's next refresh must leave
// an earlier generation's sorted views as they were and publish fresh,
// unsorted ones.
func TestSortedSamplesConcurrentFirstUse(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ds, a := streamedAnalyzer(t, 5, 2)
	// sortedLive is what each view must read: the live samplers' kept
	// values, sorted.
	sortedLive := func() [][]float64 {
		var out [][]float64
		for _, s := range durationSamplers(a) {
			v := slices.Clone(s.val)
			slices.Sort(v)
			out = append(out, v)
		}
		return out
	}
	unsorted := func(when string, views []*sampleView) {
		t.Helper()
		for i, v := range views {
			if v.sorted {
				t.Fatalf("%s: view %d was sorted before any experiment read it", when, i)
			}
		}
	}
	readAll := func(when string, views []*sampleView, want [][]float64) {
		t.Helper()
		const readers = 8
		got := make([][][]float64, readers)
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, v := range views {
					got[r] = append(got[r], v.SortedSamples())
				}
			}()
		}
		wg.Wait()
		for i := range views {
			for r := range got {
				g := got[r][i]
				if !slices.Equal(g, want[i]) || (len(g) > 0 && &g[0] != &got[0][i][0]) {
					t.Fatalf("%s: reader %d got a different slice of view %d", when, r, i)
				}
			}
		}
	}

	_, cold := generationViews(t, a)
	coldWant := sortedLive()
	unsorted("cold", cold)
	readAll("cold", cold, coldWant)
	refreshDay(t, ds, a)
	_, refreshed := generationViews(t, a)
	unsorted("refreshed", refreshed)
	for i, v := range cold {
		if !slices.Equal(v.val, coldWant[i]) || v == refreshed[i] {
			t.Fatalf("the refresh reached view %d of the earlier generation", i)
		}
	}
	refreshedWant := sortedLive()
	readAll("refreshed", refreshed, refreshedWant)
	refreshDay(t, ds, a)
	_, twice := generationViews(t, a)
	unsorted("refreshed twice", twice)
	for i, v := range refreshed {
		if !slices.Equal(v.val, refreshedWant[i]) {
			t.Fatalf("the second refresh reached view %d of the earlier generation", i)
		}
	}
}

// TestCheckpointSortsOnlyTheDelta: the first checkpoint sorts each
// cold-sealed sampler; after a one-day refresh the seal merges the day
// into that sorted run, so the second checkpoint finds nothing left to
// sort. (TestRefreshGrowsInPlace holds its bytes to a cold analyzer's.)
func TestCheckpointSortsOnlyTheDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ds, a := streamedAnalyzer(t, 3, 2)
	for i, s := range durationSamplers(a) {
		if s.sortedPrefix != 0 && s.sortedPrefix != len(s.pri) {
			t.Fatalf("sampler %d: a cold seal left a sorted run of %d of %d", i, s.sortedPrefix, len(s.pri))
		}
	}
	if err := a.Checkpoint(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	refreshDay(t, ds, a)
	merged := 0
	for i, s := range durationSamplers(a) {
		if s.sortedPrefix != len(s.pri) {
			t.Fatalf("sampler %d: %d of %d entries sorted after the refresh; the next checkpoint would re-sort them all",
				i, s.sortedPrefix, len(s.pri))
		}
		if len(s.pri) > 0 {
			merged++
		}
	}
	if merged == 0 {
		t.Fatal("no sampler holds an entry")
	}
}

// appendCap is the capacity append reaches growing a slice of capacity
// c one entry at a time until it holds n.
func appendCap(c, n int) int {
	s := make([]uint64, c)
	for cap(s) < n {
		s = append(s[:cap(s)], 0)
	}
	return cap(s)
}

// TestRefreshedSamplersGrowAsAppend: after a cold scan, five one-day
// refreshes without a checkpoint grow each finalized sampler's buffers
// as append does, never by doubling.
func TestRefreshedSamplersGrowAsAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ds, a := streamedAnalyzer(t, 7, 2)
	grew := 0
	for day := 0; day < 5; day++ {
		var before []int
		for _, s := range durationSamplers(a) {
			before = append(before, cap(s.pri))
		}
		refreshDay(t, ds, a)
		for i, s := range durationSamplers(a) {
			if cap(s.val) != cap(s.pri) {
				t.Fatalf("day %d, sampler %d: buffers of %d and %d entries", day, i, cap(s.pri), cap(s.val))
			}
			if limit := appendCap(before[i], len(s.pri)); cap(s.pri) > limit {
				t.Fatalf("day %d, sampler %d: %d entries in a buffer of %d, grown from %d; append stops at %d",
					day, i, len(s.pri), cap(s.pri), before[i], limit)
			}
			if cap(s.pri) > before[i] && before[i] >= 1024 {
				grew++
			}
		}
	}
	if grew == 0 {
		t.Fatal("no large sampler grew; the campaign does not exercise growth")
	}
}
