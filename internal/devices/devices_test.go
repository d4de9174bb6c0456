package devices

import (
	"math"
	"testing"

	"telcolens/internal/randx"
	"telcolens/internal/topology"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := GenerateCatalog(42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogShape(t *testing.T) {
	c := testCatalog(t)
	if c.Len() < 200 {
		t.Fatalf("catalog has only %d models", c.Len())
	}
	// TACs unique and resolvable.
	for i := range c.Models {
		m := &c.Models[i]
		if got := c.ByTAC(m.TAC); got != m {
			t.Fatalf("ByTAC(%d) failed", m.TAC)
		}
	}
	if c.ByTAC(1) != nil {
		t.Fatal("unknown TAC resolved")
	}
}

func TestCatalogDeterminism(t *testing.T) {
	a, err := GenerateCatalog(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCatalog(9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic catalog size")
	}
	for i := range a.Models {
		if a.Models[i] != b.Models[i] {
			t.Fatalf("model %d differs", i)
		}
	}
}

func TestWeightsSumToOne(t *testing.T) {
	c := testCatalog(t)
	var sum float64
	for _, m := range c.Models {
		if m.Weight <= 0 {
			t.Fatalf("model %d has non-positive weight", m.TAC)
		}
		sum += m.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g", sum)
	}
}

func sampleUEs(t *testing.T, c *Catalog, n int) []*Model {
	t.Helper()
	s, err := NewSampler(c)
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(7)
	out := make([]*Model, n)
	for i := range out {
		out[i] = s.Sample(r)
	}
	return out
}

func TestSampledTypeShares(t *testing.T) {
	c := testCatalog(t)
	ues := sampleUEs(t, c, 200000)
	counts := make(map[DeviceType]int)
	for _, m := range ues {
		counts[m.Type]++
	}
	n := float64(len(ues))
	// Fig 4a: smartphones 59.1%, M2M 39.8%, feature 1.1%.
	if got := float64(counts[Smartphone]) / n; math.Abs(got-0.591) > 0.01 {
		t.Errorf("smartphone share = %.4f", got)
	}
	if got := float64(counts[M2MIoT]) / n; math.Abs(got-0.398) > 0.01 {
		t.Errorf("M2M share = %.4f", got)
	}
	if got := float64(counts[FeaturePhone]) / n; math.Abs(got-0.011) > 0.005 {
		t.Errorf("feature share = %.4f", got)
	}
}

func TestSampledManufacturerShares(t *testing.T) {
	c := testCatalog(t)
	ues := sampleUEs(t, c, 200000)
	smart := make(map[string]int)
	nSmart := 0
	for _, m := range ues {
		if m.Type == Smartphone {
			smart[m.Manufacturer]++
			nSmart++
		}
	}
	// Fig 4a smartphone panel.
	want := map[string]float64{"Apple": 0.548, "Samsung": 0.302, "Motorola": 0.030, "Google": 0.020, "Huawei": 0.019}
	for mfr, share := range want {
		got := float64(smart[mfr]) / float64(nSmart)
		if math.Abs(got-share) > 0.012 {
			t.Errorf("%s share = %.4f, want %.3f", mfr, got, share)
		}
	}
}

func TestSampledRATSupport(t *testing.T) {
	c := testCatalog(t)
	ues := sampleUEs(t, c, 200000)
	var only2G, upTo3G, fiveG, smart5G, nSmart, m2mUpTo3G, nM2M int
	for _, m := range ues {
		switch m.MaxRAT {
		case topology.TwoG:
			only2G++
			upTo3G++
		case topology.ThreeG:
			upTo3G++
		case topology.FiveG:
			fiveG++
		}
		if m.Type == Smartphone {
			nSmart++
			if m.MaxRAT == topology.FiveG {
				smart5G++
			}
		}
		if m.Type == M2MIoT {
			nM2M++
			if m.MaxRAT <= topology.ThreeG {
				m2mUpTo3G++
			}
		}
	}
	n := float64(len(ues))
	// §4.2: 12.6% only 2G; 32.7% at most 3G; 48.5% of smartphones 5G-able;
	// ≈80% of M2M top out at 3G.
	if got := float64(only2G) / n; math.Abs(got-0.126) > 0.02 {
		t.Errorf("2G-only share = %.4f", got)
	}
	if got := float64(upTo3G) / n; math.Abs(got-0.327) > 0.03 {
		t.Errorf("up-to-3G share = %.4f", got)
	}
	if got := float64(smart5G) / float64(nSmart); math.Abs(got-0.485) > 0.03 {
		t.Errorf("5G smartphone share = %.4f", got)
	}
	if got := float64(m2mUpTo3G) / float64(nM2M); math.Abs(got-0.79) > 0.05 {
		t.Errorf("M2M up-to-3G share = %.4f", got)
	}
}

func TestSupportsRAT(t *testing.T) {
	m := Model{MaxRAT: topology.ThreeG}
	if !m.SupportsRAT(topology.TwoG) || !m.SupportsRAT(topology.ThreeG) {
		t.Fatal("lower RATs must be supported")
	}
	if m.SupportsRAT(topology.FourG) || m.SupportsRAT(topology.FiveG) {
		t.Fatal("higher RATs must not be supported")
	}
}

func TestQuirkOutliersPresent(t *testing.T) {
	c := testCatalog(t)
	seen := map[string]Quirk{}
	for _, m := range c.Models {
		seen[m.Manufacturer] = m.Quirk
	}
	if q := seen["KVD"]; q.HOFMult < 5 {
		t.Fatalf("KVD HOF quirk = %+v, want ~7x", q)
	}
	if q := seen["Simcom"]; q.HOMult < 3 {
		t.Fatalf("Simcom HO quirk = %+v, want ~3.9x", q)
	}
	if q := seen["Google"]; q.HOFMult > 0.8 {
		t.Fatalf("Google HOF quirk = %+v, want ~0.73x", q)
	}
}

func TestDeviceTypeStrings(t *testing.T) {
	if Smartphone.String() != "Smartphone" || M2MIoT.String() != "M2M/IoT" || FeaturePhone.String() != "Feature Phone" {
		t.Fatal("device type names wrong")
	}
}

func BenchmarkSample(b *testing.B) {
	c, err := GenerateCatalog(1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSampler(c)
	if err != nil {
		b.Fatal(err)
	}
	r := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(r)
	}
}
