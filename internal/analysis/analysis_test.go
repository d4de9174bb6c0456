package analysis

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"telcolens/internal/ho"
	"telcolens/internal/report"
	"telcolens/internal/simulate"
	"telcolens/internal/stats"
	"telcolens/internal/trace"
)

var (
	testAnalyzer *Analyzer
	testOnce     sync.Once
	testErr      error
)

// fixtureDir holds the campaigns of the package's shared fixtures for
// the whole run; TestMain removes it afterwards.
var fixtureDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "analysis-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// generateShared generates cfg into the named campaign directory under
// fixtureDir, for fixtures that outlive the test that builds them.
func generateShared(name string, cfg simulate.Config) (*simulate.Dataset, error) {
	fs, err := trace.NewFileStore(filepath.Join(fixtureDir, name))
	if err != nil {
		return nil, err
	}
	cfg.Store = fs
	return simulate.Generate(cfg)
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

// shared builds one dataset + analyzer for the whole test package: 4000
// UEs over 14 days is enough signal for every headline statistic while
// keeping the suite fast.
func shared(t testing.TB) *Analyzer {
	testOnce.Do(func() {
		cfg := simulate.DefaultConfig(42)
		cfg.UEs = 4000
		cfg.Days = 14
		ds, err := generateShared("shared", cfg)
		if err != nil {
			testErr = err
			return
		}
		testAnalyzer, testErr = New(ds)
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testAnalyzer
}

func TestScanConsistency(t *testing.T) {
	a := shared(t)
	s, err := a.Scan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s.totalHOs == 0 || s.totalFails == 0 {
		t.Fatalf("degenerate scan: %d HOs, %d fails", s.totalHOs, s.totalFails)
	}
	var typeSum int64
	for _, t := range ho.AllTypes() {
		typeSum += s.typeCounts[t]
	}
	if typeSum != s.totalHOs {
		t.Fatalf("type counts sum %d != total %d", typeSum, s.totalHOs)
	}
	var distSum int64
	for _, c := range s.districtHOs {
		distSum += c
	}
	if distSum != s.totalHOs {
		t.Fatalf("district counts sum %d != total %d", distSum, s.totalHOs)
	}
	// Sector-day rows must account for every HO and failure.
	var sdHOs, sdFails int64
	for _, r := range s.sectorDay {
		sdHOs += int64(r.HOs)
		sdFails += int64(r.Fails)
	}
	if sdHOs != s.totalHOs || sdFails != s.totalFails {
		t.Fatalf("sector-day rows cover %d/%d, want %d/%d", sdHOs, sdFails, s.totalHOs, s.totalFails)
	}
	// UE-day metrics likewise.
	var udHOs, udFails int64
	for _, m := range s.ueDay {
		udHOs += int64(m.HOs)
		udFails += int64(m.Fails)
	}
	if udHOs != s.totalHOs || udFails != s.totalFails {
		t.Fatalf("UE-day metrics cover %d/%d, want %d/%d", udHOs, udFails, s.totalHOs, s.totalFails)
	}
}

func TestAllExperimentsRun(t *testing.T) {
	a := shared(t)
	if len(Experiments()) < 25 {
		t.Fatalf("only %d experiments registered", len(Experiments()))
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			art, err := e.Run(context.Background(), a)
			if err != nil {
				t.Fatal(err)
			}
			if art.ID != e.ID {
				t.Fatalf("artifact id %q", art.ID)
			}
			if len(art.Tables)+len(art.Series) == 0 {
				t.Fatal("artifact has no content")
			}
			var buf bytes.Buffer
			if err := art.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), strings.ToUpper(e.ID)) {
				t.Fatal("render lacks experiment header")
			}
		})
	}
}

func TestExperimentLookup(t *testing.T) {
	if _, ok := ByID("table2"); !ok {
		t.Fatal("table2 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
	ids := IDs()
	if len(ids) != len(Experiments()) {
		t.Fatal("IDs/Experiments mismatch")
	}
}

func TestRunAllRenders(t *testing.T) {
	a := shared(t)
	var buf bytes.Buffer
	if err := RunAll(context.Background(), a, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"TABLE1", "FIG8", "TABLE5", "ANOVA"} {
		if !strings.Contains(out, id) {
			t.Fatalf("full report lacks %s", id)
		}
	}
}

func TestHomeDetectionRecoversPopulation(t *testing.T) {
	a := shared(t)
	counts, inferred, err := a.HomeDetection(context.Background(), a.DefaultMinNights())
	if err != nil {
		t.Fatal(err)
	}
	if inferred < a.DS.Population.Len()/4 {
		t.Fatalf("only %d of %d UEs resolved", inferred, a.DS.Population.Len())
	}
	var xs, ys []float64
	for i, c := range counts {
		if c > 0 {
			xs = append(xs, float64(c))
			ys = append(ys, float64(a.DS.Country.Districts[i].Population))
		}
	}
	X := make([][]float64, len(xs))
	for i := range xs {
		X[i] = []float64{xs[i]}
	}
	m, err := stats.FitOLS(ys, X, []string{"inferred"}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: R² = 0.92. Sampling noise at 4k UEs justifies a lower bound.
	if m.R2 < 0.75 {
		t.Fatalf("census-vs-inferred R² = %.3f, want ≥0.75", m.R2)
	}
}

func TestDensityCorrelation(t *testing.T) {
	a := shared(t)
	s, err := a.Scan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var logDens, logHOs []float64
	for i, d := range a.DS.Country.Districts {
		if s.districtHOs[i] == 0 {
			continue
		}
		logDens = append(logDens, math.Log10(math.Max(d.Density(), 0.1)))
		logHOs = append(logHOs, math.Log10(float64(s.districtHOs[i])/d.AreaKm2))
	}
	r, err := stats.Pearson(logDens, logHOs)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 0.97 at 40M UEs. Sparse rural districts add sampling noise
	// at the 4k-UE test scale; the correlation tightens with population.
	if r < 0.78 {
		t.Fatalf("density correlation r = %.3f, want ≥0.78", r)
	}
}

func TestDurationMediansMatchPaper(t *testing.T) {
	a := shared(t)
	s, err := a.Scan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	med := s.durSuccess[ho.Intra].Quantiles(0.5)[0]
	if math.Abs(med-43)/43 > 0.1 {
		t.Fatalf("intra duration median = %.1f, want ≈43", med)
	}
	med3g := s.durSuccess[ho.To3G].Quantiles(0.5)[0]
	if math.Abs(med3g-412)/412 > 0.12 {
		t.Fatalf("3G duration median = %.1f, want ≈412", med3g)
	}
}

func TestCauseSplitMatchesPaper(t *testing.T) {
	a := shared(t)
	s, err := a.Scan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := float64(s.totalFails)
	to3g := float64(s.typeFails[ho.To3G]) / total
	intra := float64(s.typeFails[ho.Intra]) / total
	// Paper: 75.07% / 24.90%. Calibration tolerance ±12pp.
	if math.Abs(to3g-0.7507) > 0.12 {
		t.Errorf("3G share of failures = %.3f, want ≈0.75", to3g)
	}
	if math.Abs(intra-0.2490) > 0.12 {
		t.Errorf("intra share of failures = %.3f, want ≈0.25", intra)
	}
	// Top-8 causes ≈92% of failures.
	var main float64
	for _, t := range ho.AllTypes() {
		for ci := 1; ci <= 8; ci++ {
			main += float64(s.causeType[t][ci])
		}
	}
	if share := main / total; math.Abs(share-0.92) > 0.05 {
		t.Errorf("main-cause share = %.3f, want ≈0.92", share)
	}
}

func TestHOTypeModelEffects(t *testing.T) {
	a := shared(t)
	m, err := a.FitHOTypeModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Names: (Intercept), 2G, 3G.
	var coef2G, coef3G, p3G float64
	for i, name := range m.Names {
		switch name {
		case "HO type: 4G/5G-NSA->2G":
			coef2G = m.Coef[i]
		case "HO type: 4G/5G-NSA->3G":
			coef3G = m.Coef[i]
			p3G = m.PValue[i]
		}
	}
	// The paper's qualitative result: vertical handovers raise HOF rates
	// enormously, 2G more than 3G, with overwhelming significance.
	if coef3G < 1.0 {
		t.Fatalf("3G coefficient = %.2f, want strongly positive", coef3G)
	}
	if coef2G <= coef3G {
		t.Fatalf("2G coefficient %.2f not above 3G %.2f", coef2G, coef3G)
	}
	if p3G > 1e-6 {
		t.Fatalf("3G effect p-value = %g, want tiny", p3G)
	}
}

func TestQuantileRegressionOrdering(t *testing.T) {
	a := shared(t)
	rows, err := a.RegressionRows(context.Background(), RowFilter{NonZeroOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var art report.Artifact
	addQuantileTable(&art, rows, "Table 9")
	if len(art.Tables) != 1 {
		t.Fatalf("no coefficient table: %q", art.Notes)
	}
	for _, row := range art.Tables[0].Rows {
		if row[0] != "0.2" && row[0] != "0.8" {
			continue
		}
		coef3G, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if coef3G < 0.5 {
			t.Fatalf("tau=%s: 3G quantile coefficient %.2f too small", row[0], coef3G)
		}
	}
}

func TestANOVAHOTypeEffect(t *testing.T) {
	a := shared(t)
	rows, err := a.RegressionRows(context.Background(), RowFilter{NonZeroOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]float64, ho.NumTypes)
	for _, r := range rows {
		groups[r.Type] = append(groups[r.Type], math.Log(r.HOFRatePct()))
	}
	res, err := stats.OneWayANOVA(groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Fatalf("ANOVA p = %g, want tiny", res.P)
	}
	// Paper eta² = 0.81 at full volume. Sector-day counts are small at
	// test scale, which inflates non-zero intra rates and dilutes the
	// separation; the window-aggregated view below restores it.
	if res.EtaSq < 0.12 {
		t.Fatalf("sector-day eta² = %.3f, want non-trivial", res.EtaSq)
	}

	winRows, err := a.WindowRows(context.Background(), RowFilter{NonZeroOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	winGroups := make([][]float64, ho.NumTypes)
	for _, r := range winRows {
		winGroups[r.Type] = append(winGroups[r.Type], math.Log(r.HOFRatePct()))
	}
	winRes, err := stats.OneWayANOVA(winGroups)
	if err != nil {
		t.Fatal(err)
	}
	if winRes.EtaSq < 0.4 {
		t.Fatalf("window eta² = %.3f, want large (paper 0.81)", winRes.EtaSq)
	}
}

func TestMobilityHOFBins(t *testing.T) {
	a := shared(t)
	bins, err := a.MobilityHOF(context.Background(), "sectors")
	if err != nil {
		t.Fatal(err)
	}
	if len(bins.Median) != len(sectorBinEdges)-1 {
		t.Fatalf("%d bins", len(bins.Median))
	}
	last := bins.ECDF[len(bins.ECDF)-1]
	if math.Abs(last-1) > 1e-9 {
		t.Fatalf("ECDF does not reach 1: %g", last)
	}
	if _, err := a.MobilityHOF(context.Background(), "bogus"); err == nil {
		t.Fatal("bogus metric accepted")
	}
}

func TestManufacturerStats(t *testing.T) {
	a := shared(t)
	rows, err := a.ManufacturerStats(context.Background(), a.MinUEsPerDistrictPair())
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]ManufacturerNormalized)
	for _, r := range rows {
		byName[r.Manufacturer] = r
	}
	apple, ok := byName["Apple"]
	if !ok {
		t.Fatal("Apple missing from manufacturer stats")
	}
	// Top manufacturers sit near ratio 1 (paper: ±10%).
	if apple.HOBox.Median < 0.7 || apple.HOBox.Median > 1.4 {
		t.Fatalf("Apple HO ratio median = %.2f, want ≈1", apple.HOBox.Median)
	}
}

func TestRegressionRowFilters(t *testing.T) {
	a := shared(t)
	all, err := a.RegressionRows(context.Background(), RowFilter{})
	if err != nil {
		t.Fatal(err)
	}
	nz, err := a.RegressionRows(context.Background(), RowFilter{NonZeroOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(nz) >= len(all) || len(nz) == 0 {
		t.Fatalf("filter sizes: all=%d nonzero=%d", len(all), len(nz))
	}
	for _, r := range nz {
		if r.Fails == 0 {
			t.Fatal("zero-fail row passed NonZeroOnly")
		}
	}
	no2g, err := a.RegressionRows(context.Background(), RowFilter{Exclude2G: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range no2g {
		if r.Type == ho.To2G {
			t.Fatal("2G row passed Exclude2G")
		}
	}
}

func TestTemporalProfileShape(t *testing.T) {
	a := shared(t)
	hos, active, err := a.TemporalProfile(context.Background(), 1, false) // urban weekday
	if err != nil {
		t.Fatal(err)
	}
	peak := argmax(hos[:])
	if peak < 14 || peak > 20 {
		t.Fatalf("urban weekday peak at bin %d (%s), want ≈16 (08:00)", peak, binLabel(peak))
	}
	trough := argmin(hos[:])
	if trough < 3 || trough > 9 {
		t.Fatalf("trough at bin %d, want night hours", trough)
	}
	corr, err := stats.Pearson(hos[:], active[:])
	if err != nil {
		t.Fatal(err)
	}
	if corr < 0.75 {
		t.Fatalf("HO/active-sector correlation = %.3f, want ≥0.75 (paper 0.9)", corr)
	}
}

func TestNewAnalyzerNil(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
}
