package census

import (
	"fmt"
	"math"

	"telcolens/internal/geo"
	"telcolens/internal/randx"
)

// GenConfig parameterizes synthetic country generation. The country is
// calibrated to the geodemographic structure the paper reports: 300+
// districts, a capital urban core with density >10^4 residents/km², remote
// districts near 10 residents/km², and urban postcodes covering roughly
// half the territory.
type GenConfig struct {
	Seed      uint64
	Districts int // number of districts; default 320
}

// DefaultGenConfig returns the calibrated defaults described above.
func DefaultGenConfig(seed uint64) GenConfig {
	return GenConfig{Seed: seed, Districts: 320}
}

// Country-level calibration constants.
const (
	// targetPop is the total number of residents.
	targetPop = 45_000_000
	// meanAreaKm2 is the mean district area (a ≈500k km² country).
	meanAreaKm2 = 1560
	// urbanAreaGoal is the target share of territory in urban postcodes.
	urbanAreaGoal = 0.496
)

// Generate builds a deterministic synthetic country from the config.
func Generate(cfg GenConfig) (*Country, error) {
	if cfg.Districts < 8 {
		return nil, fmt.Errorf("census: need at least 8 districts, got %d", cfg.Districts)
	}
	r := randx.NewStream(cfg.Seed, "census", 0)

	bounds := geo.BoundingBox{MinLat: 36.5, MinLon: -9.0, MaxLat: 43.5, MaxLon: 2.5}
	c := &Country{Name: "Iberonia", Bounds: bounds}

	// Region geography: capital in the center, others in compass thirds.
	regionOf := func(p geo.Point) Region {
		center := bounds.Center()
		if math.Abs(p.Lat-center.Lat) < 1.1 && math.Abs(p.Lon-center.Lon) < 1.4 {
			return CapitalArea
		}
		if p.Lat >= center.Lat+0.8 {
			return North
		}
		if p.Lon <= center.Lon-2.0 {
			return West
		}
		return South
	}

	// Lay districts on a jittered grid so neighborships are stable.
	n := cfg.Districts
	cols := int(math.Ceil(math.Sqrt(float64(n) * bounds.WidthKm() / bounds.HeightKm())))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	latStep := (bounds.MaxLat - bounds.MinLat) / float64(rows)
	lonStep := (bounds.MaxLon - bounds.MinLon) / float64(cols)

	// Density model: log-normal with a strong capital-core boost, spanning
	// ~10 to ~2*10^4 residents/km² as in Fig 6.
	type protoDistrict struct {
		center  geo.Point
		region  Region
		density float64
		area    float64
	}
	protos := make([]protoDistrict, 0, n)
	for i := 0; i < n; i++ {
		row := i / cols
		col := i % cols
		lat := bounds.MinLat + (float64(row)+0.3+0.4*r.Float64())*latStep
		lon := bounds.MinLon + (float64(col)+0.3+0.4*r.Float64())*lonStep
		p := geo.Point{Lat: lat, Lon: lon}
		reg := regionOf(p)
		density := r.LogNormal(math.Log(120), 1.35)
		if reg == CapitalArea {
			density *= r.LogNormal(math.Log(4), 0.5)
		}
		area := r.LogNormal(math.Log(meanAreaKm2*0.8), 0.45)
		if reg == CapitalArea {
			area *= 0.35 // capital districts are small and dense
		}
		protos = append(protos, protoDistrict{center: p, region: reg, density: density, area: area})
	}

	// Pin the two landmark districts the paper singles out: the capital's
	// urban core (≈2.1M HOs/km²/day, >500 sectors/km²) and the least
	// populated remote district.
	capitalIdx, minIdx := 0, 0
	for i, p := range protos {
		if p.region == CapitalArea && p.density > protos[capitalIdx].density {
			capitalIdx = i
		}
		if p.density < protos[minIdx].density {
			minIdx = i
		}
	}
	protos[capitalIdx].density = 17_000
	protos[capitalIdx].area = 65
	protos[minIdx].density = 10
	if protos[minIdx].region == CapitalArea {
		protos[minIdx].region = West
	}

	// Scale populations to the target total, keeping the two pinned
	// landmark districts at their absolute densities.
	var rawPop float64
	for i, p := range protos {
		if i != capitalIdx && i != minIdx {
			rawPop += p.density * p.area
		}
	}
	pinnedPop := protos[capitalIdx].density*protos[capitalIdx].area +
		protos[minIdx].density*protos[minIdx].area
	scale := (targetPop - pinnedPop) / rawPop
	if scale <= 0 {
		return nil, fmt.Errorf("census: population target %d too small for pinned districts", targetPop)
	}

	// First pass: compute urban area fractions, then renormalize them so
	// the countrywide urban-area share matches the calibrated goal (the
	// paper reports 49.6%).
	popOf := func(i int) int {
		p := protos[i]
		s := scale
		if i == capitalIdx || i == minIdx {
			s = 1
		}
		pop := int(p.density * p.area * s)
		if pop < 200 {
			pop = 200
		}
		return pop
	}
	fracs := make([]float64, n)
	var urbanArea, totalArea float64
	for i := range protos {
		density := float64(popOf(i)) / protos[i].area
		logD := math.Log10(math.Max(density, 1))
		fracs[i] = clamp((logD-0.7)/3.2, 0.02, 0.97)
		if i == capitalIdx {
			fracs[i] = 0.97
		}
		urbanArea += fracs[i] * protos[i].area
		totalArea += protos[i].area
	}
	adjust := urbanAreaGoal * totalArea / urbanArea
	for i := range fracs {
		fracs[i] = clamp(fracs[i]*adjust, 0.02, 0.97)
	}

	for i, proto := range protos {
		pop := popOf(i)
		d := District{
			ID:            i,
			Name:          fmt.Sprintf("%s-D%03d", shortRegion(proto.region), i),
			Region:        proto.region,
			Center:        proto.center,
			AreaKm2:       proto.area,
			Population:    pop,
			Capital:       proto.region == CapitalArea && proto.density > 1500,
			CapitalCenter: i == capitalIdx,
		}
		if i == capitalIdx {
			d.Capital = true
		}
		d.Postcodes = generatePostcodes(r, &d, fracs[i])
		// Postcode generation rounds populations; reconcile the district.
		var pcPop int
		for _, pc := range d.Postcodes {
			pcPop += pc.Population
		}
		d.Population = pcPop
		c.Districts = append(c.Districts, d)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func shortRegion(r Region) string {
	switch r {
	case CapitalArea:
		return "CAP"
	case North:
		return "NOR"
	case South:
		return "SOU"
	default:
		return "WES"
	}
}

// generatePostcodes splits a district into postcode areas given the urban
// fraction of its territory. Urban postcodes (>10k residents) hold the
// density-weighted bulk of the population.
func generatePostcodes(r *randx.Rand, d *District, urbanFrac float64) []Postcode {
	logD := math.Log10(math.Max(d.Density(), 1))
	if d.CapitalCenter {
		urbanFrac = 0.97
	}

	urbanArea := d.AreaKm2 * urbanFrac
	ruralArea := d.AreaKm2 - urbanArea

	// Urban postcodes hold the density-weighted bulk of the population.
	urbanPopFrac := clamp(0.35+0.18*logD, 0, 0.99)
	if d.CapitalCenter {
		urbanPopFrac = 0.995
	}
	urbanPop := int(float64(d.Population) * urbanPopFrac)
	ruralPop := d.Population - urbanPop

	var codes []Postcode
	seq := 0
	radiusKm := math.Sqrt(d.AreaKm2/math.Pi) * 0.8

	place := func() geo.Point {
		ang := r.Float64() * 2 * math.Pi
		dist := math.Sqrt(r.Float64()) * radiusKm
		return geo.Offset(d.Center, dist*math.Cos(ang), dist*math.Sin(ang))
	}
	add := func(pop int, area float64) {
		if pop <= 0 || area <= 0 {
			return
		}
		codes = append(codes, Postcode{
			Code:       fmt.Sprintf("%03d%03d", d.ID, seq),
			DistrictID: d.ID,
			Population: pop,
			AreaKm2:    area,
			Center:     place(),
		})
		seq++
	}

	// Urban postcodes: ~25k residents each (always above the 10k cut).
	if urbanPop > UrbanPopulationThreshold {
		nUrban := urbanPop / 25_000
		if nUrban < 1 {
			nUrban = 1
		}
		per := urbanPop / nUrban
		if per <= UrbanPopulationThreshold {
			nUrban = urbanPop / (UrbanPopulationThreshold + 5000)
			if nUrban < 1 {
				nUrban = 1
			}
			per = urbanPop / nUrban
		}
		rem := urbanPop
		for i := 0; i < nUrban; i++ {
			p := per
			if i == nUrban-1 {
				p = rem
			}
			add(p, urbanArea/float64(nUrban))
			rem -= p
		}
	} else {
		// Not enough residents for an urban postcode; fold into rural.
		ruralPop += urbanPop
		ruralArea += urbanArea
	}

	// Rural postcodes: ~2k residents each (always below the cut).
	nRural := ruralPop/2000 + 1
	if nRural < 1 {
		nRural = 1
	}
	maxPer := UrbanPopulationThreshold - 100
	if ruralPop/nRural > maxPer {
		nRural = ruralPop/maxPer + 1
	}
	rem := ruralPop
	per := ruralPop / nRural
	for i := 0; i < nRural; i++ {
		p := per
		if i == nRural-1 {
			p = rem
		}
		if ruralArea <= 0 {
			break
		}
		add(p, ruralArea/float64(nRural))
		rem -= p
	}
	return codes
}

func clamp(v, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, v)) }
