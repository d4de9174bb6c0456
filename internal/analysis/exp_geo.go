package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"telcolens/internal/ho"
	"telcolens/internal/report"
	"telcolens/internal/stats"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

func init() {
	register("fig5", "Census vs inferred population per district", "Figure 5", NeedUEDay, runFig5)
	register("fig6", "Daily HOs per km² vs district population density", "Figure 6", NeedDistricts, runFig6)
	register("fig9", "Handover-type mix across districts", "Figure 9", NeedDistricts, runFig9)
}

// HomeDetection infers each UE's home district from night-time activity,
// reproducing the §4.3 methodology: the main cell site a UE touches
// between 00:00 and 08:00 on at least minNights (not necessarily
// consecutive) days. It returns per-district inferred population counts.
func (a *Analyzer) HomeDetection(ctx context.Context, minNights int) ([]int, int, error) {
	s, err := a.Require(ctx, NeedUEDay)
	if err != nil {
		return nil, 0, err
	}
	type vote struct {
		site  int32
		count int
	}
	votes := make(map[trace.UEID][]vote)
	nights := make(map[trace.UEID]int)
	for _, m := range s.ueDay {
		if m.NightSite < 0 {
			continue
		}
		nights[m.UE]++
		vs := votes[m.UE]
		found := false
		for i := range vs {
			if vs[i].site == m.NightSite {
				vs[i].count++
				found = true
				break
			}
		}
		if !found {
			vs = append(vs, vote{site: m.NightSite, count: 1})
		}
		votes[m.UE] = vs
	}

	counts := make([]int, len(a.DS.Country.Districts))
	inferred := 0
	for ue, n := range nights {
		if n < minNights {
			continue
		}
		vs := votes[ue]
		best := vs[0]
		for _, v := range vs[1:] {
			if v.count > best.count {
				best = v
			}
		}
		site := a.DS.Network.Site(topology.SiteID(best.site))
		counts[site.DistrictID]++
		inferred++
	}
	return counts, inferred, nil
}

// DefaultMinNights scales the paper's ≥14-of-28-nights rule to the
// analysis window's length: half the nights, at least two, but never
// more nights than the window holds.
func (a *Analyzer) DefaultMinNights() int {
	days := a.windowDays()
	return min(max(days/2, 2), days)
}

func runFig5(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	minNights := a.DefaultMinNights()
	counts, inferred, err := a.HomeDetection(ctx, minNights)
	if err != nil {
		return err
	}
	var xs, ys []float64 // inferred vs census
	for i, c := range counts {
		if c == 0 {
			continue
		}
		xs = append(xs, float64(c))
		ys = append(ys, float64(a.DS.Country.Districts[i].Population))
	}
	art.AddNote("Home detection: main night site (00:00–08:00) on ≥%d of %d days; %d of %d UEs resolved.",
		minNights, a.windowDays(), inferred, a.DS.Population.Len())
	// A short or small campaign can resolve too few districts, or counts
	// too uniform, for the census fit; say so instead of failing the
	// whole report.
	insufficient := func() error {
		art.AddNote("Insufficient data: %d districts with inferred population do not identify the census fit.", len(xs))
		return nil
	}
	if len(xs) < 3 {
		return insufficient()
	}
	X := make([][]float64, len(xs))
	for i := range xs {
		X[i] = []float64{xs[i]}
	}
	model, err := stats.FitOLS(ys, X, []string{"inferred"}, true)
	switch {
	case errors.Is(err, stats.ErrSingular), errors.Is(err, stats.ErrEmpty):
		return insufficient()
	case err != nil:
		return err
	}
	art.AddNote("Linear fit census = a + b·inferred: R² = %.3f (paper: 0.92).", model.R2)
	art.AddTable(report.Table{
		Title:   "Census vs inferred population (district level)",
		Columns: []string{"Statistic", "Value", "Paper"},
		Rows: [][]string{
			{"Districts with inferred population", fmt.Sprintf("%d", len(xs)), "300+"},
			{"R²", report.FormatFloat(model.R2), "0.92"},
			{"Slope (census per inferred UE)", report.FormatFloat(model.Coef[1]), "≈population/UE scale"},
		},
	})
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	art.AddSeries(report.Series{
		Title: "Inferred UEs per district (sorted)", XLabel: "district rank", YLabel: "inferred UEs",
		X: ranks(len(sorted)), Y: sorted,
	})
	return nil
}

func ranks(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func runFig6(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedDistricts)
	if err != nil {
		return err
	}
	ds := a.DS
	days := float64(a.windowDays())
	scale := ds.ScaleFactor()

	var logDens, logHOs []float64
	var perKm2 []float64
	var capitalHOs, minHOs float64
	minHOs = math.Inf(1)
	var meanSum float64
	for i, d := range ds.Country.Districts {
		dailyPerKm2 := float64(s.districtHOs[i]) / days / d.AreaKm2 * scale
		perKm2 = append(perKm2, dailyPerKm2)
		meanSum += dailyPerKm2
		if d.CapitalCenter {
			capitalHOs = dailyPerKm2
		}
		if dailyPerKm2 < minHOs && s.districtHOs[i] > 0 {
			minHOs = dailyPerKm2
		}
		if s.districtHOs[i] > 0 {
			logDens = append(logDens, math.Log10(math.Max(d.Density(), 0.1)))
			logHOs = append(logHOs, math.Log10(dailyPerKm2))
		}
	}
	r, err := stats.Pearson(logDens, logHOs)
	switch {
	case errors.Is(err, stats.ErrEmpty):
		art.AddNote("Insufficient data: %d districts carry handovers, too few to correlate with density.", len(logDens))
		return nil
	case err != nil:
		return err
	}
	med := stats.Median(perKm2)
	art.AddTable(report.Table{
		Title:   "Daily HOs per km² across districts (extrapolated to full scale)",
		Columns: []string{"Statistic", "Measured", "Paper"},
		Rows: [][]string{
			{"Pearson r (log HOs/km² vs log density)", report.FormatFloat(r), "0.97"},
			{"Mean daily HOs per km²", report.FormatFloat(meanSum / float64(len(perKm2))), "1.31e4"},
			{"Median daily HOs per km²", report.FormatFloat(med), "1.31e4"},
			{"Capital urban center", report.FormatFloat(capitalHOs), "≈2.1e6"},
			{"Least active district", report.FormatFloat(minHOs), "≈60"},
		},
	})
	sort.Float64s(perKm2)
	art.AddSeries(report.Series{
		Title: "Daily HOs per km² (districts sorted)", XLabel: "district rank", YLabel: "HOs/km²/day",
		X: ranks(len(perKm2)), Y: perKm2,
	})
	return nil
}

func runFig9(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedDistricts)
	if err != nil {
		return err
	}
	ds := a.DS

	type distShare struct {
		density float64
		share   [ho.NumTypes]float64
	}
	var rows []distShare
	var intraShares, to3gShares, to2gShares []float64
	var maxTo3G float64
	for i, d := range ds.Country.Districts {
		total := float64(s.districtHOs[i])
		if total == 0 {
			continue
		}
		var r distShare
		r.density = d.Density()
		for _, t := range ho.AllTypes() {
			r.share[t] = float64(s.districtType[i][t]) / total
		}
		rows = append(rows, r)
		intraShares = append(intraShares, r.share[ho.Intra])
		to3gShares = append(to3gShares, r.share[ho.To3G])
		to2gShares = append(to2gShares, r.share[ho.To2G])
		if r.share[ho.To3G] > maxTo3G {
			maxTo3G = r.share[ho.To3G]
		}
	}
	if len(rows) == 0 {
		// A campaign with no scanned handovers yet (e.g. a streaming
		// target before its first sealed day).
		return fmt.Errorf("analysis: no district handovers in the window")
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].density < rows[j].density })

	// Least densely populated 6%: average 3G share (paper: 26.5%).
	nLow := len(rows) * 6 / 100
	if nLow < 1 {
		nLow = 1
	}
	var lowSum float64
	for _, r := range rows[:nLow] {
		lowSum += r.share[ho.To3G]
	}
	art.AddTable(report.Table{
		Title:   "Handover type mix across districts",
		Columns: []string{"Statistic", "Measured", "Paper"},
		Rows: [][]string{
			{"Intra 4G/5G-NSA mean", report.FormatPct(stats.Mean(intraShares)), "94.63%"},
			{"Intra 4G/5G-NSA median", report.FormatPct(stats.Median(intraShares)), "98.81%"},
			{"HOs to 3G mean", report.FormatPct(stats.Mean(to3gShares)), "5.41%"},
			{"HOs to 3G median", report.FormatPct(stats.Median(to3gShares)), "1.21%"},
			{"HOs to 3G max (remote district)", report.FormatPct(maxTo3G), "58.1%"},
			{"HOs to 3G avg in least-dense 6%", report.FormatPct(lowSum / float64(nLow)), "26.5%"},
			{"HOs to 2G mean", report.FormatPct(stats.Mean(to2gShares)), "0.01%"},
		},
	})
	var dens, shares []float64
	for _, r := range rows {
		dens = append(dens, r.density)
		shares = append(shares, r.share[ho.To3G]*100)
	}
	art.AddSeries(report.Series{
		Title: "4G/5G-NSA→3G share vs district density", XLabel: "density (residents/km²)", YLabel: "to-3G share (%)",
		X: dens, Y: shares,
	})
	return nil
}
