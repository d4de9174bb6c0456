package simulate

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"telcolens/internal/devices"
	"telcolens/internal/ho"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// testDataset is shared across tests: generation is the expensive step and
// the assertions below are all read-only.
var (
	testDS     *Dataset
	testDSOnce sync.Once
	testDSErr  error
)

// fixtureDir holds the shared dataset's campaign for the whole run;
// TestMain removes it afterwards.
var fixtureDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "simulate-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tempStore is an empty campaign directory for one test.
func tempStore(t testing.TB) *trace.FileStore {
	t.Helper()
	fs, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.UEs = 3000
	cfg.Days = 7
	return cfg
}

func sharedDataset(t testing.TB) *Dataset {
	testDSOnce.Do(func() {
		cfg := smallConfig(42)
		if cfg.Store, testDSErr = trace.NewFileStore(filepath.Join(fixtureDir, "shared")); testDSErr == nil {
			testDS, testDSErr = Generate(cfg)
		}
	})
	if testDSErr != nil {
		t.Fatal(testDSErr)
	}
	return testDS
}

func TestGenerateProducesRecords(t *testing.T) {
	ds := sharedDataset(t)
	total, err := trace.Count(ds.Config.Store)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no records generated")
	}
	if total != ds.TotalHandovers() {
		t.Fatalf("store has %d records, aggregates say %d", total, ds.TotalHandovers())
	}
	if days := storeDays(t, ds.Config.Store); days != 7 {
		t.Fatalf("%d day partitions", days)
	}
}

func TestRecordsWellFormed(t *testing.T) {
	ds := sharedDataset(t)
	var prevTs int64
	prevDay := -1
	err := trace.ForEach(ds.Config.Store, func(day int, rec *trace.Record) error {
		if err := rec.Validate(); err != nil {
			return err
		}
		if day != prevDay {
			prevDay = day
			prevTs = 0
		}
		if rec.Timestamp < prevTs {
			t.Fatal("records not time-ordered within day")
		}
		prevTs = rec.Timestamp
		if trace.DayOf(rec.Timestamp) != day {
			t.Fatalf("record in day %d has timestamp of day %d", day, trace.DayOf(rec.Timestamp))
		}
		if ds.Network.Sector(rec.Source) == nil || ds.Network.Sector(rec.Target) == nil {
			t.Fatal("record references unknown sector")
		}
		if rec.SourceRAT != topology.FourG {
			t.Fatal("EPC trace contains non-4G-anchored source")
		}
		if ds.Devices.ByTAC(rec.TAC) == nil {
			t.Fatal("record references unknown TAC")
		}
		if int(rec.UE) >= ds.Population.Len() {
			t.Fatal("record references unknown UE")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHOTypeShares(t *testing.T) {
	ds := sharedDataset(t)
	counts := make(map[ho.Type]int64)
	var total int64
	err := trace.ForEach(ds.Config.Store, func(day int, rec *trace.Record) error {
		counts[rec.HOType()]++
		total++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	intra := float64(counts[ho.Intra]) / float64(total)
	to3g := float64(counts[ho.To3G]) / float64(total)
	// Table 2: 94.14% / 5.86% / ≈0.001%.
	if math.Abs(intra-0.9414) > 0.03 {
		t.Errorf("intra share = %.4f, want ≈0.9414", intra)
	}
	if math.Abs(to3g-0.0586) > 0.03 {
		t.Errorf("to-3G share = %.4f, want ≈0.0586", to3g)
	}
	if frac := float64(counts[ho.To2G]) / float64(total); frac > 0.002 {
		t.Errorf("to-2G share = %.5f, want ≈0", frac)
	}
}

func TestDeviceTypeHOShares(t *testing.T) {
	ds := sharedDataset(t)
	counts := make(map[devices.DeviceType]int64)
	var total int64
	err := trace.ForEach(ds.Config.Store, func(day int, rec *trace.Record) error {
		counts[ds.Devices.ByTAC(rec.TAC).Type]++
		total++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	smart := float64(counts[devices.Smartphone]) / float64(total)
	m2m := float64(counts[devices.M2MIoT]) / float64(total)
	feat := float64(counts[devices.FeaturePhone]) / float64(total)
	// Table 2: smartphones 94.12%, M2M 5.75%, feature 0.13% of HOs.
	if math.Abs(smart-0.9412) > 0.04 {
		t.Errorf("smartphone HO share = %.4f, want ≈0.94", smart)
	}
	if math.Abs(m2m-0.0575) > 0.04 {
		t.Errorf("M2M HO share = %.4f, want ≈0.058", m2m)
	}
	if feat > 0.01 {
		t.Errorf("feature HO share = %.4f, want ≈0.0013", feat)
	}
}

func TestRATTimeShares(t *testing.T) {
	ds := sharedDataset(t)
	var tot, t2, t3, t4 float64
	for _, day := range ds.DayStats {
		t2 += day.RATTimeHours[topology.TwoG]
		t3 += day.RATTimeHours[topology.ThreeG]
		t4 += day.RATTimeHours[topology.FourG]
	}
	tot = t2 + t3 + t4
	// §4.1: 4G/5G ≈82%, 2G ≈8.9%, 3G ≈8.9%. Generous bands: these are
	// emergent from the device mix, up-time model and vertical dwell.
	if s := t4 / tot; s < 0.72 || s > 0.90 {
		t.Errorf("4G/5G time share = %.3f, want ≈0.82", s)
	}
	if s := t2 / tot; s < 0.04 || s > 0.15 {
		t.Errorf("2G time share = %.3f, want ≈0.089", s)
	}
	if s := t3 / tot; s < 0.04 || s > 0.16 {
		t.Errorf("3G time share = %.3f, want ≈0.089", s)
	}
}

func TestTrafficShares(t *testing.T) {
	ds := sharedDataset(t)
	var ul4, ulTot, dl4, dlTot float64
	for _, day := range ds.DayStats {
		for rat := 0; rat < 4; rat++ {
			ulTot += day.ULMB[rat]
			dlTot += day.DLMB[rat]
		}
		ul4 += day.ULMB[topology.FourG]
		dl4 += day.DLMB[topology.FourG]
	}
	// §4.1: UL 94.77%, DL 97.93% over 4G/5G.
	if s := ul4 / ulTot; math.Abs(s-0.9477) > 0.03 {
		t.Errorf("UL 4G share = %.4f, want ≈0.9477", s)
	}
	if s := dl4 / dlTot; math.Abs(s-0.9793) > 0.02 {
		t.Errorf("DL 4G share = %.4f, want ≈0.9793", s)
	}
}

func TestWeekendsQuieter(t *testing.T) {
	ds := sharedDataset(t)
	// Days 0-4 are Mon-Fri, 5-6 weekend.
	var weekday, weekend float64
	for d, stats := range ds.DayStats {
		if d == 5 || d == 6 {
			weekend += float64(stats.Handovers) / 2
		} else {
			weekday += float64(stats.Handovers) / 5
		}
	}
	if weekend >= weekday*0.95 {
		t.Fatalf("weekend daily HOs (%.0f) not below weekday (%.0f)", weekend, weekday)
	}
}

func TestFailureShare(t *testing.T) {
	ds := sharedDataset(t)
	var hos, fails int64
	for _, day := range ds.DayStats {
		hos += day.Handovers
		fails += day.Failures
	}
	rate := float64(fails) / float64(hos)
	// Aggregate HOF rate: small but present (intra ≈0.1%, 3G ≈5-7%
	// weighted 94/6 → ≈0.4-0.8%).
	if rate < 0.001 || rate > 0.02 {
		t.Fatalf("aggregate HOF rate = %.5f, want ≈0.005", rate)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig(77)
	cfg.UEs = 600
	cfg.Days = 2
	cfg.Store = tempStore(t)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cfg
	cfgB.Store = tempStore(t)
	b, err := Generate(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	countA, err := trace.Count(a.Config.Store)
	if err != nil {
		t.Fatal(err)
	}
	countB, err := trace.Count(b.Config.Store)
	if err != nil {
		t.Fatal(err)
	}
	if countA != countB {
		t.Fatalf("same seed produced %d vs %d records", countA, countB)
	}
	// Compare full record streams.
	var recsA []trace.Record
	if err := trace.ForEach(a.Config.Store, func(_ int, r *trace.Record) error {
		recsA = append(recsA, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := trace.ForEach(b.Config.Store, func(_ int, r *trace.Record) error {
		if recsA[i] != *r {
			t.Fatalf("record %d differs across identical runs", i)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Seed: 1, Days: 0, UEs: 10}); err == nil {
		t.Fatal("zero days accepted")
	}
	if _, err := Generate(Config{Seed: 1, Days: 1, UEs: 0}); err == nil {
		t.Fatal("zero UEs accepted")
	}
	// A campaign lives in a directory: a nil store is an error that says
	// how to open one.
	if _, err := Generate(Config{Seed: 1, Days: 1, UEs: 10}); err == nil || !strings.Contains(err.Error(), "NewFileStore") {
		t.Fatalf("nil store: err = %v, want one naming NewFileStore", err)
	}
}

func TestScaleFactor(t *testing.T) {
	ds := sharedDataset(t)
	want := 40_000_000.0 / 3000.0
	if got := ds.ScaleFactor(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("scale factor = %g, want %g", got, want)
	}
}
