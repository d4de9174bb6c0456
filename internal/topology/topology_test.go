package topology

import (
	"math"
	"testing"

	"telcolens/internal/census"
	"telcolens/internal/geo"
)

func testNetwork(t *testing.T) (*Network, *census.Country) {
	t.Helper()
	country, err := census.Generate(census.DefaultGenConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	net, err := Generate(DefaultGenConfig(42), country)
	if err != nil {
		t.Fatal(err)
	}
	return net, country
}

func TestGenerateValidates(t *testing.T) {
	net, _ := testNetwork(t)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(net.Sites) < 2000 {
		t.Fatalf("sites = %d", len(net.Sites))
	}
	if len(net.Sectors) < 5*len(net.Sites) {
		t.Fatalf("sectors = %d for %d sites", len(net.Sectors), len(net.Sites))
	}
}

func TestRATMixMatchesPaper(t *testing.T) {
	net, _ := testNetwork(t)
	share := net.ShareByRAT()
	// Paper §4.1: 5G 8.4%, 4G 55%, 2G/3G ≈18.3% each. Allow sampling slack.
	cases := []struct {
		rat  RAT
		want float64
		tol  float64
	}{
		{FiveG, 0.084, 0.02},
		{FourG, 0.55, 0.03},
		{TwoG, 0.183, 0.03},
		{ThreeG, 0.183, 0.03},
	}
	for _, c := range cases {
		if got := share[c.rat]; math.Abs(got-c.want) > c.tol {
			t.Errorf("%s share = %.4f, want %.3f±%.3f", c.rat, got, c.want, c.tol)
		}
	}
}

func TestUrbanSectorShare(t *testing.T) {
	net, _ := testNetwork(t)
	urban := 0
	for _, s := range net.Sectors {
		if s.Area == census.Urban {
			urban++
		}
	}
	got := float64(urban) / float64(len(net.Sectors))
	// Paper §5.1: ≈80% of sectors are in urban areas.
	if got < 0.70 || got > 0.92 {
		t.Fatalf("urban sector share = %.3f, want ≈0.80", got)
	}
}

func TestEverySiteHasFourG(t *testing.T) {
	net, _ := testNetwork(t)
	for _, s := range net.Sites {
		if !s.HasRAT(FourG) {
			t.Fatalf("site %d lacks the 4G anchor layer", s.ID)
		}
	}
}

func TestCapitalCenterDensity(t *testing.T) {
	net, country := testNetwork(t)
	var capID int = -1
	for _, d := range country.Districts {
		if d.CapitalCenter {
			capID = d.ID
		}
	}
	if capID < 0 {
		t.Fatal("no capital center district")
	}
	capDistrict := country.District(capID)
	capDensity := float64(len(net.SectorsInDistrict(capID))) / capDistrict.AreaKm2
	// Every other district must have lower sector density.
	for _, d := range country.Districts {
		if d.ID == capID {
			continue
		}
		density := float64(len(net.SectorsInDistrict(d.ID))) / d.AreaKm2
		if density > capDensity {
			t.Fatalf("district %s sector density %.2f exceeds capital center %.2f",
				d.Name, density, capDensity)
		}
	}
}

func TestEveryDistrictHasSites(t *testing.T) {
	net, country := testNetwork(t)
	for _, d := range country.Districts {
		if len(net.SitesInDistrict(d.ID)) == 0 {
			t.Fatalf("district %s has no sites", d.Name)
		}
		if len(net.SectorsInDistrict(d.ID)) == 0 {
			t.Fatalf("district %s has no sectors", d.Name)
		}
	}
}

func TestVendorRegionalSkew(t *testing.T) {
	net, _ := testNetwork(t)
	shares := net.VendorShareByRegion()
	// V3 concentrates in the West, per the generator's calibration.
	if shares[census.West][V3] < 0.4 {
		t.Fatalf("V3 share in West = %.3f, want majority-ish", shares[census.West][V3])
	}
	if shares[census.CapitalArea][V3] > 0.15 {
		t.Fatalf("V3 share in capital = %.3f, want small", shares[census.CapitalArea][V3])
	}
	// All four vendors exist somewhere.
	seen := make(map[Vendor]bool)
	for _, s := range net.Sectors {
		seen[s.Vendor] = true
	}
	for _, v := range AllVendors() {
		if !seen[v] {
			t.Fatalf("vendor %s absent from deployment", v)
		}
	}
}

func TestNeighborGraph(t *testing.T) {
	net, _ := testNetwork(t)
	for _, s := range net.Sites {
		nbs := net.NeighborSites(s.ID)
		for _, nb := range nbs {
			if nb == s.ID {
				t.Fatalf("site %d is its own neighbor", s.ID)
			}
			if net.Sites[nb].DistrictID != s.DistrictID {
				t.Fatalf("site %d neighbor %d crosses districts", s.ID, nb)
			}
		}
	}
	// Neighbors should be sorted by distance (closest first).
	site := net.Sites[0]
	nbs := net.NeighborSites(site.ID)
	var prev float64 = -1
	for _, nb := range nbs {
		d := geo.DistanceKm(site.Loc, net.Sites[nb].Loc)
		if d < prev {
			t.Fatal("neighbors not in ascending distance order")
		}
		prev = d
	}
}

func TestDeterminism(t *testing.T) {
	country, err := census.Generate(census.DefaultGenConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(DefaultGenConfig(9), country)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultGenConfig(9), country)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sectors) != len(b.Sectors) {
		t.Fatal("same seed produced different sector counts")
	}
	for i := range a.Sectors {
		if a.Sectors[i] != b.Sectors[i] {
			t.Fatalf("sector %d differs across identical runs", i)
		}
	}
}

func TestNewSitesWithinWindow(t *testing.T) {
	net, _ := testNetwork(t)
	upgraded := 0
	for _, s := range net.Sites {
		if s.DeployedDay > 0 {
			upgraded++
			if s.DeployedDay > 28 {
				t.Fatalf("site %d deployed on day %d, window is 28", s.ID, s.DeployedDay)
			}
		}
	}
	if upgraded == 0 {
		t.Fatal("no mid-window deployments generated")
	}
}

func TestLookupsOutOfRange(t *testing.T) {
	net, _ := testNetwork(t)
	if net.Sector(SectorID(len(net.Sectors))) != nil {
		t.Fatal("out-of-range sector lookup returned non-nil")
	}
	if net.Site(SiteID(len(net.Sites))) != nil {
		t.Fatal("out-of-range site lookup returned non-nil")
	}
	if net.SectorsInDistrict(-1) != nil || net.SitesInDistrict(10000) != nil {
		t.Fatal("out-of-range district lookup returned non-nil")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(DefaultGenConfig(1), nil); err == nil {
		t.Fatal("nil country accepted")
	}
	country, err := census.Generate(census.DefaultGenConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig(1)
	cfg.SitesTarget = 10 // below district count
	if _, err := Generate(cfg, country); err == nil {
		t.Fatal("tiny SitesTarget accepted")
	}
}

func TestEvolutionSeries(t *testing.T) {
	series := EvolutionSeries()
	if len(series) != 15 {
		t.Fatalf("%d years", len(series))
	}
	if series[0].Year != 2009 || series[len(series)-1].Year != 2023 {
		t.Fatal("year range wrong")
	}
	var prevTot float64
	for _, y := range series {
		var sum float64
		for _, s := range y.Share {
			if s < 0 {
				t.Fatalf("negative share in %d", y.Year)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("year %d shares sum to %g", y.Year, sum)
		}
		if y.TotalNormalized < prevTot {
			t.Fatalf("deployment shrank in %d", y.Year)
		}
		prevTot = y.TotalNormalized
	}
	last := series[len(series)-1]
	if last.Share[FiveG] != 0.084 || last.Share[FourG] != 0.55 {
		t.Fatalf("2023 mix = %+v", last.Share)
	}
	// Paper: ≈59% cumulative growth 2018-2023.
	var y2018 float64
	for _, y := range series {
		if y.Year == 2018 {
			y2018 = y.TotalNormalized
		}
	}
	growth := (1 - y2018) / y2018
	if math.Abs(growth-0.59) > 0.02 {
		t.Fatalf("2018→2023 growth = %.3f, want ≈0.59", growth)
	}
}

func TestRATAndVendorStrings(t *testing.T) {
	if TwoG.String() != "2G" || FiveG.String() != "5G" {
		t.Fatal("RAT strings wrong")
	}
	if V1.String() != "V1" || V4.String() != "V4" {
		t.Fatal("vendor strings wrong")
	}
}

func BenchmarkGenerate(b *testing.B) {
	country, err := census.Generate(census.DefaultGenConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(DefaultGenConfig(uint64(i)), country); err != nil {
			b.Fatal(err)
		}
	}
}
