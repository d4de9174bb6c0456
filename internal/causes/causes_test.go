package causes

import (
	"math"
	"sort"
	"strings"
	"testing"

	"telcolens/internal/census"
	"telcolens/internal/devices"
	"telcolens/internal/ho"
	"telcolens/internal/randx"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := NewCatalog(42, 1100)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogSize(t *testing.T) {
	c := testCatalog(t)
	// Paper: 1k+ distinct causes, 8 dominant.
	if c.Len() < 1000 {
		t.Fatalf("catalog has %d causes, want 1k+", c.Len())
	}
	if len(mainCauses) != 8 {
		t.Fatalf("%d main codes", len(mainCauses))
	}
	for _, mc := range mainCauses {
		code := mc.Code
		if !IsMain(code) {
			t.Fatalf("code %d not recognized as main", code)
		}
		cause := c.ByCode(code)
		if cause == nil || cause.Description == "" || cause.Source == "" {
			t.Fatalf("main cause %d incomplete", code)
		}
	}
	if IsMain(0) || IsMain(100) {
		t.Fatal("IsMain misclassifies")
	}
}

func TestZeroDurationCauses(t *testing.T) {
	c := testCatalog(t)
	r := randx.New(1)
	// §6.2: causes #3 and #6 prevent HO initiation → 0 ms signaling.
	for _, code := range []Code{3, 6} {
		if !c.ByCode(code).Zero {
			t.Fatalf("cause %d should be zero-duration", code)
		}
		if d := c.SampleDuration(r, code); d != 0 {
			t.Fatalf("cause %d sampled duration %g", code, d)
		}
	}
}

func TestCauseDurationShapes(t *testing.T) {
	c := testCatalog(t)
	r := randx.New(2)
	const n = 20000
	med := func(code Code) float64 {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = c.SampleDuration(r, code)
		}
		return quickMedian(samples)
	}
	// Cause #4 (overload): median ~81ms.
	if m := med(4); math.Abs(m-81)/81 > 0.05 {
		t.Errorf("cause 4 median = %.1f, want ~81", m)
	}
	// Cause #8 (timeout): median ~10s — the slowest failure mode.
	if m := med(8); math.Abs(m-10000)/10000 > 0.05 {
		t.Errorf("cause 8 median = %.0f, want ~10000", m)
	}
	// Cause #1 (cancellation): >1s median.
	if m := med(1); m < 1000 || m > 2500 {
		t.Errorf("cause 1 median = %.0f, want 1-2.5s", m)
	}
}

func sampleCauses(t *testing.T, c *Catalog, hoType ho.Type, area census.AreaType, dev devices.DeviceType, n int) map[Code]int {
	t.Helper()
	r := randx.New(99)
	counts := make(map[Code]int)
	for i := 0; i < n; i++ {
		counts[c.Sample(r, hoType, area, dev)]++
	}
	return counts
}

func TestMainCausesDominate(t *testing.T) {
	c := testCatalog(t)
	// Aggregate over a population-like blend: mostly 3G failures (75%),
	// some intra (25%), as the paper reports.
	r := randx.New(7)
	const n = 100000
	main := 0
	for i := 0; i < n; i++ {
		hoType := ho.To3G
		if r.Bool(0.249) {
			hoType = ho.Intra
		}
		area := census.Urban
		if r.Bool(0.35) {
			area = census.Rural
		}
		code := c.Sample(r, hoType, area, devices.Smartphone)
		if IsMain(code) {
			main++
		}
	}
	share := float64(main) / n
	// Paper: 92% of HOFs stem from the 8 main causes.
	if math.Abs(share-0.92) > 0.04 {
		t.Fatalf("main-cause share = %.4f, want ≈0.92", share)
	}
}

func TestSRVCCCausesOnlyFor3G(t *testing.T) {
	c := testCatalog(t)
	for _, area := range []census.AreaType{census.Rural, census.Urban} {
		counts := sampleCauses(t, c, ho.Intra, area, devices.Smartphone, 50000)
		if counts[6] > 0 || counts[7] > 0 {
			t.Fatalf("SRVCC causes sampled for intra HOs: %d/%d", counts[6], counts[7])
		}
	}
}

func TestCauseFourLoadShare(t *testing.T) {
	c := testCatalog(t)
	counts := sampleCauses(t, c, ho.To3G, census.Urban, devices.Smartphone, 100000)
	share4 := float64(counts[4]) / 100000
	// §6.2: cause #4 averages 25% of 3G failures; urban skew raises it.
	if share4 < 0.25 || share4 > 0.55 {
		t.Fatalf("urban 3G cause-4 share = %.3f", share4)
	}
	rural := sampleCauses(t, c, ho.To3G, census.Rural, devices.Smartphone, 100000)
	if float64(rural[4])/100000 >= share4 {
		t.Fatal("cause 4 should concentrate in urban areas")
	}
}

func TestCauseThreeHitsM2M(t *testing.T) {
	c := testCatalog(t)
	m2m := sampleCauses(t, c, ho.Intra, census.Urban, devices.M2MIoT, 100000)
	smart := sampleCauses(t, c, ho.Intra, census.Urban, devices.Smartphone, 100000)
	m2mShare := float64(m2m[3]) / 100000
	smartShare := float64(smart[3]) / 100000
	if m2mShare <= 2*smartShare {
		t.Fatalf("cause 3 M2M share %.3f not >> smartphone %.3f", m2mShare, smartShare)
	}
	// §6.2: 59% of M2M/IoT failures are cause #3 (intra HOs dominate M2M).
	if m2mShare < 0.4 {
		t.Fatalf("cause 3 M2M share = %.3f, want ≥0.4", m2mShare)
	}
}

func TestCauseSixHitsFeaturePhonesRural(t *testing.T) {
	c := testCatalog(t)
	feat := sampleCauses(t, c, ho.To3G, census.Rural, devices.FeaturePhone, 100000)
	m2m := sampleCauses(t, c, ho.To3G, census.Rural, devices.M2MIoT, 100000)
	if feat[6] <= m2m[6]*5 {
		t.Fatalf("cause 6: feature %d vs m2m %d, want feature-dominated", feat[6], m2m[6])
	}
}

func TestCauseEightM2MSkew(t *testing.T) {
	c := testCatalog(t)
	m2m := sampleCauses(t, c, ho.To3G, census.Rural, devices.M2MIoT, 100000)
	smart := sampleCauses(t, c, ho.To3G, census.Rural, devices.Smartphone, 100000)
	ratio := float64(m2m[8]) / float64(smart[8])
	// §6.2: cause #8 is ×3 in M2M devices vs smartphones.
	if ratio < 1.8 {
		t.Fatalf("cause 8 M2M/smartphone ratio = %.2f, want ≥1.8", ratio)
	}
}

func TestLongTailDiversity(t *testing.T) {
	c := testCatalog(t)
	r := randx.New(13)
	tail := make(map[Code]int)
	for i := 0; i < 200000; i++ {
		code := c.Sample(r, ho.To3G, census.Rural, devices.Smartphone)
		if !IsMain(code) {
			tail[code]++
		}
	}
	if len(tail) < 50 {
		t.Fatalf("only %d distinct long-tail causes sampled", len(tail))
	}
	for code := range tail {
		cause := c.ByCode(code)
		if cause == nil {
			t.Fatalf("sampled unknown cause %d", code)
		}
		if !strings.HasPrefix(cause.Source, "vendor:") {
			t.Fatalf("long-tail cause %d has source %q", code, cause.Source)
		}
	}
}

func TestNoLongTailFallsBack(t *testing.T) {
	c, err := NewCatalog(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(3)
	for i := 0; i < 10000; i++ {
		code := c.Sample(r, ho.To2G, census.Rural, devices.Smartphone)
		if !IsMain(code) {
			t.Fatalf("tail-free catalog produced non-main code %d", code)
		}
	}
}

func TestCatalogDeterminism(t *testing.T) {
	a, err := NewCatalog(5, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCatalog(5, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.all {
		if a.all[i] != b.all[i] {
			t.Fatalf("cause %d differs across identical seeds", i)
		}
	}
}

func quickMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
