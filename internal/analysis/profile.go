package analysis

import (
	"context"
	"fmt"
	"sort"

	"telcolens/internal/ho"
)

// DistrictProfile is a drill-down summary of one census district, built
// for operator workflows such as legacy-RAT decommissioning planning
// (paper §5.2 and §8).
type DistrictProfile struct {
	ID         int
	Name       string
	Region     string
	Population int
	AreaKm2    float64
	Density    float64
	Capital    bool

	Sites   int
	Sectors int

	HOs         int64
	HOFs        int64
	HOFRate     float64
	ShareIntra  float64
	Share3G     float64
	Share2G     float64
	DailyHOsKm2 float64 // measured scale
	InferredUEs int     // home-detected UEs (window-scaled night rule)
}

// DistrictProfile builds the summary for one district.
func (a *Analyzer) DistrictProfile(ctx context.Context, id int) (*DistrictProfile, error) {
	s, err := a.Require(ctx, NeedDistricts|NeedUEDay)
	if err != nil {
		return nil, err
	}
	d := a.DS.Country.District(id)
	if d == nil {
		return nil, fmt.Errorf("analysis: unknown district %d", id)
	}
	homeCounts, _, err := a.HomeDetection(ctx, a.DefaultMinNights())
	if err != nil {
		return nil, err
	}
	p := &DistrictProfile{
		ID:          d.ID,
		Name:        d.Name,
		Region:      d.Region.String(),
		Population:  d.Population,
		AreaKm2:     d.AreaKm2,
		Density:     d.Density(),
		Capital:     d.Capital,
		Sites:       len(a.DS.Network.SitesInDistrict(id)),
		Sectors:     len(a.DS.Network.SectorsInDistrict(id)),
		HOs:         s.districtHOs[id],
		HOFs:        s.districtFails[id],
		InferredUEs: homeCounts[id],
	}
	if p.HOs > 0 {
		p.HOFRate = float64(p.HOFs) / float64(p.HOs)
		p.ShareIntra = float64(s.districtType[id][ho.Intra]) / float64(p.HOs)
		p.Share3G = float64(s.districtType[id][ho.To3G]) / float64(p.HOs)
		p.Share2G = float64(s.districtType[id][ho.To2G]) / float64(p.HOs)
	}
	p.DailyHOsKm2 = float64(p.HOs) / float64(a.windowDays()) / d.AreaKm2
	return p, nil
}

// LegacyDependence ranks districts by their reliance on vertical handovers
// to 3G/2G — the decommissioning-priority view the paper's §5.2 takeaway
// describes ("identify areas where 4G/5G-capable devices frequently use
// legacy RATs").
type LegacyDependence struct {
	DistrictID  int
	Name        string
	Density     float64
	VerticalPct float64 // share of HOs targeting 3G/2G
	HOs         int64
}

// RankLegacyDependence returns the top-n districts by vertical-HO share
// (districts with fewer than minHOs handovers are skipped as noise).
func (a *Analyzer) RankLegacyDependence(ctx context.Context, n int, minHOs int64) ([]LegacyDependence, error) {
	s, err := a.Require(ctx, NeedDistricts)
	if err != nil {
		return nil, err
	}
	var out []LegacyDependence
	for i, d := range a.DS.Country.Districts {
		total := s.districtHOs[i]
		if total < minHOs {
			continue
		}
		vertical := s.districtType[i][ho.To3G] + s.districtType[i][ho.To2G]
		out = append(out, LegacyDependence{
			DistrictID:  i,
			Name:        d.Name,
			Density:     d.Density(),
			VerticalPct: 100 * float64(vertical) / float64(total),
			HOs:         total,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].VerticalPct > out[b].VerticalPct })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out, nil
}
