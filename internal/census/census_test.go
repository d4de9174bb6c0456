package census

import "testing"

func testCountry(t *testing.T) *Country {
	t.Helper()
	c, err := Generate(DefaultGenConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateBasicShape(t *testing.T) {
	c := testCountry(t)
	if len(c.Districts) != 320 {
		t.Fatalf("districts = %d", len(c.Districts))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	pop := c.TotalPopulation()
	if pop < 40_000_000 || pop > 50_000_000 {
		t.Fatalf("population = %d", pop)
	}
	var area float64
	for _, d := range c.Districts {
		area += d.AreaKm2
	}
	if area < 200_000 || area > 900_000 {
		t.Fatalf("area = %.0f", area)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(DefaultGenConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultGenConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalPopulation() != b.TotalPopulation() {
		t.Fatal("same seed, different population")
	}
	for i := range a.Districts {
		if a.Districts[i].Population != b.Districts[i].Population {
			t.Fatalf("district %d differs across runs", i)
		}
	}
	c, err := Generate(DefaultGenConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalPopulation() == c.TotalPopulation() {
		t.Fatal("different seeds produced identical countries (suspicious)")
	}
}

func TestDensitySpansPaperRange(t *testing.T) {
	c := testCountry(t)
	rank := c.DensityRank()
	lo := c.Districts[rank[0]].Density()
	hi := c.Districts[rank[len(rank)-1]].Density()
	if lo > 30 {
		t.Fatalf("least dense district %.1f/km², want ~10", lo)
	}
	if hi < 8_000 {
		t.Fatalf("densest district %.0f/km², want >10⁴", hi)
	}
}

func TestCapitalCenterIsDensest(t *testing.T) {
	c := testCountry(t)
	var capCenter *District
	count := 0
	for i := range c.Districts {
		if c.Districts[i].CapitalCenter {
			capCenter = &c.Districts[i]
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d capital-center districts", count)
	}
	if !capCenter.Capital || capCenter.Region != CapitalArea {
		t.Fatal("capital center not flagged as capital/CapitalArea")
	}
	for i := range c.Districts {
		if c.Districts[i].Density() > capCenter.Density() {
			t.Fatalf("district %d denser than the capital center", i)
		}
	}
}

func TestUrbanAreaShareNearGoal(t *testing.T) {
	c := testCountry(t)
	var urban, total float64
	for _, d := range c.Districts {
		total += d.AreaKm2
		for _, p := range d.Postcodes {
			if p.Type() == Urban {
				urban += p.AreaKm2
			}
		}
	}
	share := urban / total
	// Paper: urban postcodes cover 49.6% of territory. Allow ±12pp since
	// the share is emergent from the density distribution.
	if share < 0.38 || share > 0.62 {
		t.Fatalf("urban area share = %.3f, want ≈0.50", share)
	}
}

func TestUrbanHoldsMostPopulation(t *testing.T) {
	c := testCountry(t)
	var urbanPop, totalPop int
	for _, d := range c.Districts {
		for _, p := range d.Postcodes {
			totalPop += p.Population
			if p.Type() == Urban {
				urbanPop += p.Population
			}
		}
	}
	frac := float64(urbanPop) / float64(totalPop)
	if frac < 0.6 {
		t.Fatalf("urban population share = %.3f, want most of the population", frac)
	}
}

func TestPostcodeClassificationThreshold(t *testing.T) {
	p := Postcode{Population: UrbanPopulationThreshold}
	if p.Type() != Rural {
		t.Fatal("exactly 10k should be rural (strictly more than 10k is urban)")
	}
	p.Population++
	if p.Type() != Urban {
		t.Fatal("10k+1 should be urban")
	}
}

func TestAllRegionsPresent(t *testing.T) {
	c := testCountry(t)
	counts := make(map[Region]int)
	for _, d := range c.Districts {
		counts[d.Region]++
	}
	for _, r := range Regions() {
		if counts[r] < 10 {
			t.Fatalf("region %s has only %d districts", r, counts[r])
		}
	}
}

func TestDistrictLookup(t *testing.T) {
	c := testCountry(t)
	d := c.District(5)
	if d == nil || d.ID != 5 {
		t.Fatal("District(5) lookup failed")
	}
	if c.District(-1) != nil || c.District(len(c.Districts)) != nil {
		t.Fatal("out-of-range lookup not nil")
	}
	pc := c.Districts[5].Postcodes[0]
	if got := c.DistrictOfPostcode(pc.Code); got == nil || got.ID != 5 {
		t.Fatal("postcode->district lookup failed")
	}
	if c.DistrictOfPostcode("zzz") != nil {
		t.Fatal("unknown postcode resolved")
	}
	if got := c.PostcodeByCode(pc.Code); got == nil || got.Code != pc.Code {
		t.Fatal("postcode lookup failed")
	}
}

func TestDistrictCentersInsideBounds(t *testing.T) {
	c := testCountry(t)
	for _, d := range c.Districts {
		b, p := c.Bounds, d.Center
		if p.Lat < b.MinLat || p.Lat > b.MaxLat || p.Lon < b.MinLon || p.Lon > b.MaxLon {
			t.Fatalf("district %s center outside bounds", d.Name)
		}
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	bad := []GenConfig{
		{Seed: 1, Districts: 2},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRegionStrings(t *testing.T) {
	if CapitalArea.String() != "Capital area" || North.String() != "North" ||
		South.String() != "South" || West.String() != "West" {
		t.Fatal("region names wrong")
	}
	if Urban.String() != "Urban" || Rural.String() != "Rural" {
		t.Fatal("area type names wrong")
	}
}
