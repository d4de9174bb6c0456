// Package topology models the MNO's radio access network deployment: cell
// sites carrying radio sectors for up to four radio access technologies
// (2G–5G), installed by four antenna vendors with region-skewed footprints,
// placed across the census districts in proportion to population. It also
// provides the 2009–2023 deployment-evolution series behind the paper's
// Figure 3a.
package topology

import (
	"fmt"
	"sort"
	"sync"

	"telcolens/internal/census"
	"telcolens/internal/geo"
)

// RAT is a radio access technology generation.
type RAT uint8

// RATs in generation order. FourG covers both 4G and the 5G-NSA anchor
// behaviour (the paper cannot distinguish them at the EPC, §2), while FiveG
// marks NR sectors in the deployment inventory.
const (
	TwoG RAT = iota
	ThreeG
	FourG
	FiveG
	numRATs
)

// AllRATs lists the RATs in generation order.
func AllRATs() []RAT { return []RAT{TwoG, ThreeG, FourG, FiveG} }

// String returns the conventional RAT name.
func (r RAT) String() string {
	switch r {
	case TwoG:
		return "2G"
	case ThreeG:
		return "3G"
	case FourG:
		return "4G"
	case FiveG:
		return "5G"
	default:
		return fmt.Sprintf("RAT(%d)", uint8(r))
	}
}

// Vendor is an anonymized antenna vendor, V1 through V4 as in the paper.
type Vendor uint8

// Vendors.
const (
	V1 Vendor = iota
	V2
	V3
	V4
)

// AllVendors lists the vendors.
func AllVendors() []Vendor { return []Vendor{V1, V2, V3, V4} }

// String returns the anonymized vendor code.
func (v Vendor) String() string { return fmt.Sprintf("V%d", uint8(v)+1) }

// SectorID identifies a radio sector within a Network.
type SectorID uint32

// SiteID identifies a cell site within a Network.
type SiteID uint32

// Sector is one radio sector: an antenna face on a site serving one RAT.
type Sector struct {
	ID         SectorID
	Site       SiteID
	RAT        RAT
	Vendor     Vendor
	DistrictID int
	Postcode   string
	Area       census.AreaType
	Region     census.Region
	Loc        geo.Point
	Azimuth    uint16 // degrees, informational
}

// Site is a physical cell site hosting sectors for one or more RATs.
type Site struct {
	ID          SiteID
	Loc         geo.Point
	DistrictID  int
	Postcode    string
	Area        census.AreaType
	Region      census.Region
	Vendor      Vendor
	Sectors     []SectorID
	RATs        [numRATs]bool // which RATs the site carries
	DeployedDay int           // day offset within the study window; <=0 means pre-existing
}

// HasRAT reports whether the site carries sectors of the given RAT.
func (s *Site) HasRAT(r RAT) bool { return s.RATs[r] }

// Network is the full deployment inventory plus lookup structures. It
// must only be shared by pointer (the neighbour graph is built once, on
// first use).
type Network struct {
	Sites   []Site
	Sectors []Sector

	sectorsByDistrict [][]SectorID
	sitesByDistrict   [][]SiteID

	// neighborSites[site] lists the neighborK nearest same-district sites.
	// Only the generator walks this graph, so it is built on the first
	// NeighborSites call rather than by Generate: programs that merely
	// load a campaign never pay for it.
	neighborOnce  sync.Once
	neighborSites [][]SiteID
}

// Sector returns the sector with the given ID, or nil.
func (n *Network) Sector(id SectorID) *Sector {
	if int(id) >= len(n.Sectors) {
		return nil
	}
	return &n.Sectors[id]
}

// Site returns the site with the given ID, or nil.
func (n *Network) Site(id SiteID) *Site {
	if int(id) >= len(n.Sites) {
		return nil
	}
	return &n.Sites[id]
}

// SectorsInDistrict returns the sector IDs deployed in a district.
func (n *Network) SectorsInDistrict(districtID int) []SectorID {
	if districtID < 0 || districtID >= len(n.sectorsByDistrict) {
		return nil
	}
	return n.sectorsByDistrict[districtID]
}

// SitesInDistrict returns the site IDs deployed in a district.
func (n *Network) SitesInDistrict(districtID int) []SiteID {
	if districtID < 0 || districtID >= len(n.sitesByDistrict) {
		return nil
	}
	return n.sitesByDistrict[districtID]
}

// NeighborSites returns the nearest same-district neighbor sites of a
// site, closest first, used by the mobility model to walk the site graph.
// The first call builds the whole graph; it is safe for concurrent use.
func (n *Network) NeighborSites(id SiteID) []SiteID {
	n.neighborOnce.Do(n.buildNeighbors)
	if int(id) >= len(n.neighborSites) {
		return nil
	}
	return n.neighborSites[id]
}

// CountByRAT returns the number of sectors per RAT.
func (n *Network) CountByRAT() map[RAT]int {
	m := make(map[RAT]int, numRATs)
	for _, s := range n.Sectors {
		m[s.RAT]++
	}
	return m
}

// ShareByRAT returns each RAT's share of the sector inventory.
func (n *Network) ShareByRAT() map[RAT]float64 {
	counts := n.CountByRAT()
	total := len(n.Sectors)
	m := make(map[RAT]float64, numRATs)
	if total == 0 {
		return m
	}
	for r, c := range counts {
		m[r] = float64(c) / float64(total)
	}
	return m
}

// VendorShareByRegion returns, per region, each vendor's share of sectors.
func (n *Network) VendorShareByRegion() map[census.Region]map[Vendor]float64 {
	counts := make(map[census.Region]map[Vendor]int)
	totals := make(map[census.Region]int)
	for _, s := range n.Sectors {
		if counts[s.Region] == nil {
			counts[s.Region] = make(map[Vendor]int)
		}
		counts[s.Region][s.Vendor]++
		totals[s.Region]++
	}
	out := make(map[census.Region]map[Vendor]float64)
	for reg, byV := range counts {
		out[reg] = make(map[Vendor]float64)
		for v, c := range byV {
			out[reg][v] = float64(c) / float64(totals[reg])
		}
	}
	return out
}

// Validate checks referential integrity of the inventory.
func (n *Network) Validate() error {
	for i, s := range n.Sites {
		if s.ID != SiteID(i) {
			return fmt.Errorf("topology: site %d has ID %d", i, s.ID)
		}
		if len(s.Sectors) == 0 {
			return fmt.Errorf("topology: site %d has no sectors", i)
		}
		for _, sec := range s.Sectors {
			if int(sec) >= len(n.Sectors) {
				return fmt.Errorf("topology: site %d references missing sector %d", i, sec)
			}
			if n.Sectors[sec].Site != s.ID {
				return fmt.Errorf("topology: sector %d does not point back to site %d", sec, i)
			}
		}
	}
	for i, s := range n.Sectors {
		if s.ID != SectorID(i) {
			return fmt.Errorf("topology: sector %d has ID %d", i, s.ID)
		}
		if int(s.Site) >= len(n.Sites) {
			return fmt.Errorf("topology: sector %d references missing site %d", i, s.Site)
		}
		if !n.Sites[s.Site].RATs[s.RAT] {
			return fmt.Errorf("topology: sector %d RAT %s not declared on site %d", i, s.RAT, s.Site)
		}
	}
	return nil
}

// buildIndexes fills the per-district lookup structures after
// generation.
func (n *Network) buildIndexes(districts int) {
	n.sectorsByDistrict = make([][]SectorID, districts)
	n.sitesByDistrict = make([][]SiteID, districts)
	for _, s := range n.Sectors {
		n.sectorsByDistrict[s.DistrictID] = append(n.sectorsByDistrict[s.DistrictID], s.ID)
	}
	for _, s := range n.Sites {
		n.sitesByDistrict[s.DistrictID] = append(n.sitesByDistrict[s.DistrictID], s.ID)
	}
}

// buildNeighbors computes the k nearest same-district sites per site.
// District site counts are modest at simulation scale, so the quadratic
// pass stays cheap; it runs at most once per network.
func (n *Network) buildNeighbors() {
	n.neighborSites = make([][]SiteID, len(n.Sites))
	type distSite struct {
		d  float64
		id SiteID
	}
	for _, siteIDs := range n.sitesByDistrict {
		for _, id := range siteIDs {
			me := &n.Sites[id]
			cands := make([]distSite, 0, len(siteIDs)-1)
			for _, other := range siteIDs {
				if other == id {
					continue
				}
				cands = append(cands, distSite{geo.DistanceKm(me.Loc, n.Sites[other].Loc), other})
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
			k := neighborK
			if k > len(cands) {
				k = len(cands)
			}
			nb := make([]SiteID, k)
			for i := 0; i < k; i++ {
				nb[i] = cands[i].id
			}
			n.neighborSites[id] = nb
		}
	}
}
