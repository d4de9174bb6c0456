package topology

import (
	"fmt"
	"math"

	"telcolens/internal/census"
	"telcolens/internal/geo"
	"telcolens/internal/randx"
)

// GenConfig parameterizes deployment generation. Defaults mirror the
// studied MNO at a configurable scale: the paper's network has 24k+ sites
// and 350k+ sectors; the default 1:10 scale generates ≈2.4k sites while
// preserving every share-based statistic.
type GenConfig struct {
	Seed        uint64
	SitesTarget int // approximate total sites; default 2400
	WindowDays  int // length of the study window for DeployedDay; default 28
}

// DefaultGenConfig returns the calibrated defaults described above.
func DefaultGenConfig(seed uint64) GenConfig {
	return GenConfig{Seed: seed, SitesTarget: 2400, WindowDays: 28}
}

// Deployment constants of the studied MNO.
const (
	// neighborK is the nearest-neighbor fan-out of the site graph.
	neighborK = 8
	// newSites is how many sites are deployed during the study window.
	newSites = 12
	// capitalBoost multiplies site weight in the capital core.
	capitalBoost = 2.5
)

// RAT mix targets from the paper (§4.1): sector share by RAT in 2023.
const (
	targetShare5G = 0.084
	targetShare4G = 0.55
	targetShare2G = 0.183
	targetShare3G = 0.183
)

// sectorsPerFaceGroup is how many sectors one RAT contributes on one site
// (a standard three-sector site layout).
const sectorsPerFaceGroup = 3

// vendorMix is the region-conditional vendor distribution. V3 concentrates
// in the West, matching the vendor/region skew in the paper's Fig 17 and
// the large V3 and West coefficients in Table 5.
var vendorMix = map[census.Region][]float64{
	census.CapitalArea: {0.60, 0.30, 0.05, 0.05},
	census.North:       {0.25, 0.60, 0.02, 0.13},
	census.South:       {0.45, 0.45, 0.05, 0.05},
	census.West:        {0.20, 0.18, 0.57, 0.05},
}

// Generate builds a deterministic synthetic deployment over the country.
func Generate(cfg GenConfig, country *census.Country) (*Network, error) {
	if country == nil || len(country.Districts) == 0 {
		return nil, fmt.Errorf("topology: nil or empty country")
	}
	if cfg.SitesTarget < len(country.Districts) {
		return nil, fmt.Errorf("topology: SitesTarget %d below district count %d", cfg.SitesTarget, len(country.Districts))
	}
	if cfg.WindowDays <= 0 {
		cfg.WindowDays = 28
	}
	r := randx.NewStream(cfg.Seed, "topology", 0)

	// Solve site-level RAT probabilities from the sector-share targets,
	// assuming every site carries 4G (the anchor layer).
	// share(RAT) = P(RAT) / (1 + P2 + P3 + P5)
	denom := 1 / targetShare4G // = 1 + P2 + P3 + P5
	p5 := targetShare5G * denom
	p2 := targetShare2G * denom
	p3 := targetShare3G * denom

	// Split by area: 5G concentrates in urban sites; legacy RATs are
	// relatively denser in rural deployments where they provide coverage.
	const urbanSiteShare = 0.8 // emergent from population-proportional placement
	p5Urban := p5 / urbanSiteShare * 0.98
	p5Rural := (p5 - urbanSiteShare*p5Urban) / (1 - urbanSiteShare)
	if p5Rural < 0 {
		p5Rural = 0
	}
	const legacyRuralProb = 0.62
	p2Urban := (p2 - (1-urbanSiteShare)*legacyRuralProb) / urbanSiteShare
	p3Urban := (p3 - (1-urbanSiteShare)*legacyRuralProb) / urbanSiteShare
	if p2Urban < 0 || p3Urban < 0 {
		return nil, fmt.Errorf("topology: legacy RAT mix infeasible")
	}

	// Distribute sites across districts proportionally to population,
	// with the capital-core boost and at least one site everywhere.
	weights := make([]float64, len(country.Districts))
	var totalW float64
	for i, d := range country.Districts {
		w := float64(d.Population)
		if d.CapitalCenter {
			w *= capitalBoost
		}
		weights[i] = w
		totalW += w
	}

	net := &Network{}
	for i := range country.Districts {
		d := &country.Districts[i]
		nSites := int(math.Round(weights[i] / totalW * float64(cfg.SitesTarget)))
		if nSites < 1 {
			nSites = 1
		}
		// Postcode choice weighted by population puts sites where people
		// are, which yields the ≈80% urban sector share the paper reports.
		pcWeights := make([]float64, len(d.Postcodes))
		for j, pc := range d.Postcodes {
			pcWeights[j] = float64(pc.Population) + 1
		}
		pcChoice, err := randx.NewWeightedChoice(pcWeights)
		if err != nil {
			return nil, fmt.Errorf("topology: district %d: %w", i, err)
		}
		for s := 0; s < nSites; s++ {
			pc := &d.Postcodes[pcChoice.Sample(r)]
			radius := math.Sqrt(pc.AreaKm2/math.Pi) * 0.9
			ang := r.Float64() * 2 * math.Pi
			dist := math.Sqrt(r.Float64()) * radius
			loc := geo.Offset(pc.Center, dist*math.Cos(ang), dist*math.Sin(ang))

			vmix := vendorMix[d.Region]
			vendor := Vendor(sampleIndex(r, vmix))

			site := Site{
				ID:         SiteID(len(net.Sites)),
				Loc:        loc,
				DistrictID: d.ID,
				Postcode:   pc.Code,
				Area:       pc.Type(),
				Region:     d.Region,
				Vendor:     vendor,
			}
			site.RATs[FourG] = true
			urban := pc.Type() == census.Urban
			if urban {
				site.RATs[FiveG] = r.Bool(p5Urban)
				site.RATs[TwoG] = r.Bool(p2Urban)
				site.RATs[ThreeG] = r.Bool(p3Urban)
			} else {
				site.RATs[FiveG] = r.Bool(p5Rural)
				site.RATs[TwoG] = r.Bool(legacyRuralProb)
				site.RATs[ThreeG] = r.Bool(legacyRuralProb)
			}

			for _, rat := range AllRATs() {
				if !site.RATs[rat] {
					continue
				}
				for face := 0; face < sectorsPerFaceGroup; face++ {
					sec := Sector{
						ID:         SectorID(len(net.Sectors)),
						Site:       site.ID,
						RAT:        rat,
						Vendor:     vendor,
						DistrictID: d.ID,
						Postcode:   pc.Code,
						Area:       pc.Type(),
						Region:     d.Region,
						Loc:        loc,
						Azimuth:    uint16(face * 120),
					}
					site.Sectors = append(site.Sectors, sec.ID)
					net.Sectors = append(net.Sectors, sec)
				}
			}
			net.Sites = append(net.Sites, site)
		}
	}

	// Mark a handful of sites as deployed mid-window (the paper captures
	// topology daily specifically to track such upgrades).
	for i := 0; i < newSites && i < len(net.Sites); i++ {
		id := SiteID(r.Intn(len(net.Sites)))
		net.Sites[id].DeployedDay = 1 + r.Intn(cfg.WindowDays)
	}

	net.buildIndexes(len(country.Districts))
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

func sampleIndex(r *randx.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	u := r.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}
