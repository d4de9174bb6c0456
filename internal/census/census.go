// Package census models the official census open data the paper joins with
// operator measurements (§3.2): a country partitioned into 300+ districts
// across four regions, each district holding postcode areas classified as
// urban (>10k residents) or rural, together with population counts and
// geographic extents.
package census

import (
	"fmt"
	"sort"

	"telcolens/internal/geo"
)

// Region is one of the coarse sector regions the paper's regression uses
// (Table 3): West, South, North and the Capital area.
type Region uint8

// Regions in the order used by regression dummy coding; CapitalArea is the
// baseline level, matching the paper's Table 5 (which reports North, South
// and West coefficients against the capital).
const (
	CapitalArea Region = iota
	North
	South
	West
)

// Regions lists all regions in canonical order.
func Regions() []Region { return []Region{CapitalArea, North, South, West} }

// String returns the region name.
func (r Region) String() string {
	switch r {
	case CapitalArea:
		return "Capital area"
	case North:
		return "North"
	case South:
		return "South"
	case West:
		return "West"
	default:
		return fmt.Sprintf("Region(%d)", uint8(r))
	}
}

// AreaType is the urban/rural classification the paper derives from
// postcode-level census population (§3.2).
type AreaType uint8

// Area types. Urban corresponds to postcodes with more than 10k residents.
const (
	Rural AreaType = iota
	Urban
)

// String returns the area type name.
func (a AreaType) String() string {
	if a == Urban {
		return "Urban"
	}
	return "Rural"
}

// UrbanPopulationThreshold is the resident count above which a postcode is
// classified as urban, following the paper's 10k cut.
const UrbanPopulationThreshold = 10_000

// Postcode is the finest census unit: a postal area with population and
// approximate extent.
type Postcode struct {
	Code       string
	DistrictID int
	Population int
	AreaKm2    float64
	Center     geo.Point
}

// Type returns the urban/rural classification of the postcode.
func (p Postcode) Type() AreaType {
	if p.Population > UrbanPopulationThreshold {
		return Urban
	}
	return Rural
}

// District is a census district: the paper's geographic unit of analysis
// (300+ districts countrywide).
type District struct {
	ID            int
	Name          string
	Region        Region
	Center        geo.Point
	AreaKm2       float64
	Population    int
	Postcodes     []Postcode
	Capital       bool // belongs to the capital city
	CapitalCenter bool // the capital's dense urban core
}

// Density returns residents per square kilometer.
func (d District) Density() float64 {
	if d.AreaKm2 <= 0 {
		return 0
	}
	return float64(d.Population) / d.AreaKm2
}

// Country is the full census frame: every district with its postcodes.
type Country struct {
	Name      string
	Bounds    geo.BoundingBox
	Districts []District

	byPostcode map[string]int // postcode -> district index
}

// TotalPopulation returns the country's resident count.
func (c *Country) TotalPopulation() int {
	var t int
	for _, d := range c.Districts {
		t += d.Population
	}
	return t
}

// District returns the district with the given ID, or nil.
func (c *Country) District(id int) *District {
	if id < 0 || id >= len(c.Districts) {
		return nil
	}
	return &c.Districts[id]
}

// DistrictOfPostcode resolves a postcode string to its district, or nil.
func (c *Country) DistrictOfPostcode(code string) *District {
	c.ensureIndex()
	idx, ok := c.byPostcode[code]
	if !ok {
		return nil
	}
	return &c.Districts[idx]
}

// PostcodeByCode resolves a postcode string, or nil.
func (c *Country) PostcodeByCode(code string) *Postcode {
	d := c.DistrictOfPostcode(code)
	if d == nil {
		return nil
	}
	for i := range d.Postcodes {
		if d.Postcodes[i].Code == code {
			return &d.Postcodes[i]
		}
	}
	return nil
}

func (c *Country) ensureIndex() {
	if c.byPostcode != nil {
		return
	}
	c.byPostcode = make(map[string]int)
	for i, d := range c.Districts {
		for _, p := range d.Postcodes {
			c.byPostcode[p.Code] = i
		}
	}
}

// DensityRank returns district IDs ordered by ascending population density.
func (c *Country) DensityRank() []int {
	ids := make([]int, len(c.Districts))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		return c.Districts[ids[a]].Density() < c.Districts[ids[b]].Density()
	})
	return ids
}

// Validate checks internal consistency: unique postcodes, positive areas,
// district population equal to the sum of its postcodes.
func (c *Country) Validate() error {
	seen := make(map[string]bool)
	for i, d := range c.Districts {
		if d.ID != i {
			return fmt.Errorf("census: district %d has ID %d", i, d.ID)
		}
		if d.AreaKm2 <= 0 {
			return fmt.Errorf("census: district %q has non-positive area", d.Name)
		}
		if !d.Center.Valid() {
			return fmt.Errorf("census: district %q has invalid center", d.Name)
		}
		var pop int
		var area float64
		for _, p := range d.Postcodes {
			if seen[p.Code] {
				return fmt.Errorf("census: duplicate postcode %q", p.Code)
			}
			seen[p.Code] = true
			if p.DistrictID != d.ID {
				return fmt.Errorf("census: postcode %q links to district %d, in %d", p.Code, p.DistrictID, d.ID)
			}
			if p.AreaKm2 <= 0 {
				return fmt.Errorf("census: postcode %q has non-positive area", p.Code)
			}
			pop += p.Population
			area += p.AreaKm2
		}
		if pop != d.Population {
			return fmt.Errorf("census: district %q population %d != postcode sum %d", d.Name, d.Population, pop)
		}
		if area > d.AreaKm2*1.0001 {
			return fmt.Errorf("census: district %q postcode area %.1f exceeds district area %.1f", d.Name, area, d.AreaKm2)
		}
	}
	return nil
}
