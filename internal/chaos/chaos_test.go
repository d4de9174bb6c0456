package chaos

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"telcolens/internal/analysis"
	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/faultfs"
	"telcolens/internal/ingest"
	"telcolens/internal/query"
	"telcolens/internal/simulate"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// The matrix seed: every fault plan in this file derives from it, so a
// failure reproduces with the printed rule alone.
const matrixSeed = 20240814

// perOpCap bounds fail points per op class; each class's first few and
// final steps cover the distinct code paths without N× runtime.
const perOpCap = 3

// dayRecords builds the deterministic record set for one study day.
func dayRecords(day, n int) []trace.Record {
	base := trace.DayStart(day).UnixMilli()
	recs := make([]trace.Record, n)
	for i := range recs {
		k := i + day*100_000
		recs[i] = trace.Record{
			Timestamp:  base + int64(i)*977,
			UE:         trace.UEID(k % 23),
			TAC:        devices.TAC(350000 + k%5),
			Source:     topology.SectorID(100 + k%13),
			Target:     topology.SectorID(200 + k%11),
			Cause:      causes.Code(k % 30),
			SourceRAT:  1,
			TargetRAT:  2,
			Result:     trace.Result(k % 2),
			DurationMs: float32(k%500) / 10,
		}
	}
	return recs
}

// writeDay appends one day's records as a partition, returning the
// first error instead of failing the test (chaos runs expect errors).
func writeDay(s *trace.FileStore, day, n int) error {
	w, err := s.AppendPartition(day, 0)
	if err != nil {
		return err
	}
	var cb trace.ColumnBatch
	cb.FromRecords(dayRecords(day, n))
	if err := w.WriteColumns(&cb); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// mustDigest fingerprints dir minus the serving MANIFEST (its Gen
// counts aborted attempts; correctness of the manifest is asserted via
// Verify instead).
func mustDigest(t *testing.T, dir string) map[string]uint64 {
	t.Helper()
	d, err := TreeDigest(dir, trace.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func verifyClean(t *testing.T, dir string) *trace.VerifyReport {
	t.Helper()
	s, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trace.Verify(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store not clean: %+v", rep)
	}
	return rep
}

// TestMatrixPartitionWrite fails a partition append at every Nth
// filesystem op in turn. Invariant: a failed append leaves the store
// exactly as before (nothing registered, Verify clean), and the
// fault-free retry lands partitions byte-identical to a run that never
// failed.
func TestMatrixPartitionWrite(t *testing.T) {
	const recsPerDay = 3000
	control := t.TempDir()
	cs, err := trace.NewFileStore(control)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeDay(cs, 0, recsPerDay); err != nil {
		t.Fatal(err)
	}
	want := mustDigest(t, control)

	probe := faultfs.NewFault(nil, faultfs.Plan{Seed: matrixSeed})
	pdir := t.TempDir()
	ps, err := trace.NewFileStoreOpts(pdir, trace.FileStoreOptions{FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeDay(ps, 0, recsPerDay); err != nil {
		t.Fatal(err)
	}
	if got := mustDigest(t, pdir); DiffTrees(want, got) != "" {
		t.Fatalf("probe run diverged from control: %s", DiffTrees(want, got))
	}

	for _, rule := range FailPoints(probe.OpCounts(), perOpCap) {
		t.Run(rule.String(), func(t *testing.T) {
			dir := t.TempDir()
			ff := faultfs.NewFault(nil, faultfs.Plan{Seed: matrixSeed, Rules: []faultfs.Rule{rule}})
			s, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: ff})
			if err == nil {
				err = writeDay(s, 0, recsPerDay)
			}
			if err != nil {
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("error does not carry the injected cause: %v", err)
				}
				// Old state (the empty store) intact: nothing registered.
				rep := verifyClean(t, dir)
				if rep.Partitions != 0 {
					t.Fatalf("failed append left %d partitions behind", rep.Partitions)
				}
				// Fault-free retry converges.
				clean, err := trace.NewFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if err := writeDay(clean, 0, recsPerDay); err != nil {
					t.Fatal(err)
				}
			}
			if diff := DiffTrees(want, mustDigest(t, dir)); diff != "" {
				t.Fatalf("recovered store differs from control: %s", diff)
			}
			rep := verifyClean(t, dir)
			if rep.Partitions != 1 || rep.Records != recsPerDay {
				t.Fatalf("recovered store: %+v", rep)
			}
		})
	}
}

func ingestMeta(windowDays int) *simulate.CampaignMeta {
	return &simulate.CampaignMeta{
		Config: simulate.Config{
			Seed:       7,
			Days:       0,
			WindowDays: windowDays,
			UEs:        10,
		},
	}
}

// ingestDay runs the full streaming day against svc: one batch append,
// the day-completion marker, then a forced flush to drain the seal.
func ingestDay(svc *ingest.Service, n int) error {
	cb := new(trace.ColumnBatch)
	for _, rec := range dayRecords(0, n) {
		r := rec
		cb.AppendRecord(&r)
	}
	if _, err := svc.Append(1, 1, cb); err != nil {
		return err
	}
	if err := svc.DayComplete(0, simulate.DayAggregate{Handovers: int64(n)}); err != nil {
		return err
	}
	_, err := svc.Flush(true)
	return err
}

// TestMatrixIngest fails the WAL append and the seal commit at every
// Nth filesystem op of their respective phases. Invariant: the error
// is clean, and reopening the service (crash-restart: WAL replay +
// debris removal + idempotent re-append and re-seal) converges to
// partitions byte-identical to a run that never failed.
func TestMatrixIngest(t *testing.T) {
	const recs = 2000
	control := t.TempDir()
	csvc, err := ingest.Open(control, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := csvc.Init(ingestMeta(1)); err != nil {
		t.Fatal(err)
	}
	if err := ingestDay(csvc, recs); err != nil {
		t.Fatal(err)
	}
	csvc.Close()
	want := mustDigest(t, control)

	// Probe with phase snapshots: [open+init, append) and [append, seal].
	probe := faultfs.NewFault(nil, faultfs.Plan{Seed: matrixSeed})
	pdir := t.TempDir()
	psvc, err := ingest.Open(pdir, ingest.Options{FS: probe, SyncEvery: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := psvc.Init(ingestMeta(1)); err != nil {
		t.Fatal(err)
	}
	afterInit := probe.OpCounts()
	cb := new(trace.ColumnBatch)
	for _, rec := range dayRecords(0, recs) {
		r := rec
		cb.AppendRecord(&r)
	}
	if _, err := psvc.Append(1, 1, cb); err != nil {
		t.Fatal(err)
	}
	afterAppend := probe.OpCounts()
	if err := psvc.DayComplete(0, simulate.DayAggregate{Handovers: recs}); err != nil {
		t.Fatal(err)
	}
	if _, err := psvc.Flush(true); err != nil {
		t.Fatal(err)
	}
	afterSeal := probe.OpCounts()
	psvc.Close()
	if diff := DiffTrees(want, mustDigest(t, pdir)); diff != "" {
		t.Fatalf("probe run diverged from control: %s", diff)
	}

	phases := []struct {
		name          string
		before, after map[faultfs.Op]int
	}{
		{"wal-append", afterInit, afterAppend},
		{"seal-commit", afterAppend, afterSeal},
	}
	for _, ph := range phases {
		for _, rule := range FailPointsBetween(ph.before, ph.after, perOpCap) {
			t.Run(ph.name+"/"+rule.String(), func(t *testing.T) {
				dir := t.TempDir()
				ff := faultfs.NewFault(nil, faultfs.Plan{Seed: matrixSeed, Rules: []faultfs.Rule{rule}})
				svc, err := ingest.Open(dir, ingest.Options{FS: ff, SyncEvery: true})
				if err == nil {
					if err = svc.Init(ingestMeta(1)); err == nil {
						err = ingestDay(svc, recs)
					}
					svc.Close()
				}
				if err != nil && !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("error does not carry the injected cause: %v", err)
				}
				// Crash-restart recovery on a clean filesystem: replay the
				// WAL, re-append idempotently, re-seal.
				rsvc, rerr := ingest.Open(dir, ingest.Options{})
				if rerr != nil {
					t.Fatal(rerr)
				}
				if !rsvc.Initialized() {
					if err := rsvc.Init(ingestMeta(1)); err != nil {
						t.Fatal(err)
					}
				}
				if err := ingestDay(rsvc, recs); err != nil {
					// A fault past the commit point means the original run's
					// seal actually landed; the replayed day is then refused
					// as already sealed — which is the durable outcome we
					// want, not a failure.
					var sealed *ingest.DaySealedError
					if !errors.As(err, &sealed) {
						t.Fatal(err)
					}
				}
				rsvc.Close()
				if diff := DiffTrees(want, mustDigest(t, dir)); diff != "" {
					t.Fatalf("recovered ingest dir differs from control: %s", diff)
				}
				verifyClean(t, dir)
			})
		}
	}
}

// chaosCampaign generates a small on-disk campaign for the analysis
// scenarios.
func chaosCampaign(t *testing.T, dir string, days, windowDays int) *simulate.Dataset {
	t.Helper()
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(1234)
	cfg.UEs = 1200
	cfg.Days = days
	cfg.WindowDays = windowDays
	cfg.Store = fs
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestMatrixCheckpointSave fails a checkpoint save at every Nth
// filesystem op. Invariant: the previous checkpoint file stays byte
// intact, no stage debris survives, and the fault-free retry publishes
// the new state.
func TestMatrixCheckpointSave(t *testing.T) {
	ds := chaosCampaign(t, t.TempDir(), 2, 0)
	a1, err := analysis.New(ds, analysis.WithParallelism(1), analysis.WithWindow(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a1.Require(context.Background(), analysis.NeedAll); err != nil {
		t.Fatal(err)
	}
	a2, err := analysis.New(ds, analysis.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a2.Require(context.Background(), analysis.NeedAll); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := dir + "/state.tlckpt"
	// Probe the save path.
	probe := faultfs.NewFault(nil, faultfs.Plan{Seed: matrixSeed})
	if err := analysis.SaveCheckpointFile(probe, path, a2); err != nil {
		t.Fatal(err)
	}
	wantNew := mustDigest(t, dir)

	for _, rule := range FailPoints(probe.OpCounts(), perOpCap) {
		t.Run(rule.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := dir + "/state.tlckpt"
			if err := analysis.SaveCheckpointFile(nil, path, a1); err != nil {
				t.Fatal(err)
			}
			wantOld := mustDigest(t, dir)
			ff := faultfs.NewFault(nil, faultfs.Plan{Seed: matrixSeed, Rules: []faultfs.Rule{rule}})
			err := analysis.SaveCheckpointFile(ff, path, a2)
			if err != nil {
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("error does not carry the injected cause: %v", err)
				}
				// Atomic replace: a failed save leaves either the complete
				// old file or the complete new file (a directory-sync fault
				// after the rename reports an error with the new bytes
				// already committed) — never a torn mix or stage debris.
				got := mustDigest(t, dir)
				if DiffTrees(wantOld, got) != "" && DiffTrees(wantNew, got) != "" {
					t.Fatalf("failed save left a torn state: old=%s new=%s",
						DiffTrees(wantOld, got), DiffTrees(wantNew, got))
				}
				if err := analysis.SaveCheckpointFile(nil, path, a2); err != nil {
					t.Fatal(err)
				}
			}
			if diff := DiffTrees(wantNew, mustDigest(t, dir)); diff != "" {
				t.Fatalf("recovered checkpoint differs: %s", diff)
			}
			// Either way the surviving file resumes.
			if _, resumed, err := analysis.ResumeAnalyzerFile(nil, path, ds); err != nil || !resumed {
				t.Fatalf("surviving checkpoint not resumable: resumed=%v err=%v", resumed, err)
			}
		})
	}
}

// TestIndexedQueryFaults drives /query's engine against a store whose
// reads flip bits or fail outright. Invariant: a query either errors
// cleanly (classified corruption) or returns exactly the control rows
// — never silently wrong data. Every rule queries twice on one view,
// through two engines so the result cache answers neither: the second
// query runs on whatever index outcome the view pinned. Day 1's first
// open and first read are its index footer's: a one-shot error there is
// transient and is not pinned, so the second query loads the index
// again and prunes with it, and a flipped trailer or footer pins a scan.
func TestIndexedQueryFaults(t *testing.T) {
	dir := t.TempDir()
	s, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeDay(s, 0, 4000); err != nil {
		t.Fatal(err)
	}
	params := query.Params{}
	ue := trace.UEID(3)
	params.UE = &ue
	params.Limit = 100000
	// Day 1 lacks the queried UE, so its index footer alone prunes it.
	w, err := s.AppendPartition(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var day1 []trace.Record
	for _, rec := range dayRecords(1, 4000) {
		if rec.UE != ue {
			day1 = append(day1, rec)
		}
	}
	var cb trace.ColumnBatch
	cb.FromRecords(day1)
	if err := w.WriteColumns(&cb); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	view, err := query.NewView(s)
	if err != nil {
		t.Fatal(err)
	}
	control, _, err := query.New(s).Query(context.Background(), view, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(control.Rows) == 0 {
		t.Fatal("control query returned nothing")
	}
	if control.Metrics.PartitionsPruned != 1 {
		t.Fatalf("control query pruned %d partitions, want day 1 pruned by its index",
			control.Metrics.PartitionsPruned)
	}

	transient := []faultfs.Rule{
		{Op: faultfs.OpRead, Path: "ho_day_001.tlho", Kind: faultfs.KindErr},
		{Op: faultfs.OpOpen, Path: "ho_day_001.tlho", Kind: faultfs.KindErr},
	}
	pinned := []faultfs.Rule{
		{Op: faultfs.OpRead, Path: "ho_day_001.tlho", Kind: faultfs.KindFlip, Bit: 7},
		{Op: faultfs.OpRead, Path: "ho_day_001.tlho", Kind: faultfs.KindFlip, Bit: 4001, After: 2},
	}
	rules := []faultfs.Rule{
		{Op: faultfs.OpRead, Path: "*.tlho", Kind: faultfs.KindFlip, Bit: 7, After: 0},
		{Op: faultfs.OpRead, Path: "*.tlho", Kind: faultfs.KindFlip, Bit: 4001, After: 1},
		{Op: faultfs.OpRead, Path: "*.tlho", Kind: faultfs.KindErr},
	}
	rules = append(append(rules, transient...), pinned...)
	for _, rule := range rules {
		t.Run(rule.String(), func(t *testing.T) {
			ff := faultfs.NewFault(nil, faultfs.Plan{Seed: matrixSeed, Rules: []faultfs.Rule{rule}})
			fs, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: ff, VerifyReads: true})
			if err != nil {
				t.Fatal(err)
			}
			fview, err := query.NewView(fs)
			if err != nil {
				return // clean refusal at view build is acceptable
			}
			var answers []*query.Result
			for i := 0; i < 2; i++ {
				res, _, err := query.New(fs).Query(context.Background(), fview, params)
				if err != nil {
					continue // clean error: the contract allows refusing
				}
				if len(res.Rows) != len(control.Rows) {
					t.Fatalf("faulted query %d silently returned %d rows, control %d",
						i, len(res.Rows), len(control.Rows))
				}
				for j := range res.Rows {
					if res.Rows[j] != control.Rows[j] {
						t.Fatalf("faulted query %d silently diverged at row %d", i, j)
					}
				}
				answers = append(answers, res)
			}
			want := [2]int64{}
			switch {
			case slices.Contains(transient, rule):
				want[1] = 1
			case slices.Contains(pinned, rule):
			default:
				return
			}
			if len(answers) != 2 {
				t.Fatalf("a fault on the index footer failed %d of 2 queries; it must only cost pruning", 2-len(answers))
			}
			for i, res := range answers {
				if got := res.Metrics.PartitionsPruned; got != want[i] {
					t.Fatalf("query %d pruned %d partitions, want %d", i, got, want[i])
				}
			}
		})
	}
}

// TestRefreshReadFaults fails each partition read of an incremental
// refresh. Invariant: Refresh errors cleanly, the warm analyzer keeps
// rendering its previous state, and a fault-free retry produces output
// byte-identical to a cold full scan.
func TestRefreshReadFaults(t *testing.T) {
	dir := t.TempDir()
	ds := chaosCampaign(t, dir, 2, 3)
	warm, err := analysis.New(ds, analysis.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Require(context.Background(), analysis.NeedAll); err != nil {
		t.Fatal(err)
	}
	ckptPath := t.TempDir() + "/state.tlckpt"
	if err := analysis.SaveCheckpointFile(nil, ckptPath, warm); err != nil {
		t.Fatal(err)
	}
	// The campaign grows a day; a refresh must scan it.
	if err := ds.GenerateDays(1); err != nil {
		t.Fatal(err)
	}

	// Control: cold full scan of the final store.
	cold, err := simulate.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := analysis.New(cold, analysis.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := analysis.RunAll(context.Background(), ca, &want); err != nil {
		t.Fatal(err)
	}

	// Probe: resumed refresh through a counting FS.
	probeRun := func(ff faultfs.FS) (*analysis.Analyzer, error) {
		rds, err := simulate.Load(dir)
		if err != nil {
			return nil, err
		}
		fstore, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: ff})
		if err != nil {
			return nil, err
		}
		rds.Config.Store = fstore
		a, resumed, err := analysis.ResumeAnalyzerFile(nil, ckptPath, rds, analysis.WithParallelism(1))
		if err != nil {
			return nil, err
		}
		if !resumed {
			return nil, errors.New("checkpoint did not resume")
		}
		if _, err := a.Refresh(context.Background()); err != nil {
			return a, err
		}
		return a, nil
	}
	probe := faultfs.NewFault(nil, faultfs.Plan{Seed: matrixSeed})
	pa, err := probeRun(probe)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := analysis.RunAll(context.Background(), pa, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("probe refresh output differs from cold full scan")
	}

	counts := map[faultfs.Op]int{faultfs.OpRead: probe.OpCounts()[faultfs.OpRead]}
	for _, rule := range FailPoints(counts, perOpCap) {
		rule.Path = "*.tlho"
		t.Run(rule.String(), func(t *testing.T) {
			ff := faultfs.NewFault(nil, faultfs.Plan{Seed: matrixSeed, Rules: []faultfs.Rule{rule}})
			a, err := probeRun(ff)
			if err == nil {
				// The rule targeted a read the refresh path never reached
				// (probe counted all reads, some are index/manifest): the
				// run must then match the control.
				var out bytes.Buffer
				if err := analysis.RunAll(context.Background(), a, &out); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want.Bytes(), out.Bytes()) {
					t.Fatal("unfaulted refresh output differs from cold scan")
				}
				return
			}
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("refresh error does not carry the injected cause: %v", err)
			}
			// Fault-free retry converges to the cold control.
			ra, rerr := probeRun(faultfs.OS{})
			if rerr != nil {
				t.Fatal(rerr)
			}
			var out bytes.Buffer
			if err := analysis.RunAll(context.Background(), ra, &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), out.Bytes()) {
				t.Fatal("recovered refresh output differs from cold scan")
			}
		})
	}
}
