package analysis

import (
	"context"
	"fmt"
	"sort"

	"telcolens/internal/devices"
	"telcolens/internal/ho"
	"telcolens/internal/report"
	"telcolens/internal/stats"
)

func init() {
	register("table2", "Handover shares per HO type and device type", "Table 2", NeedTypes, runTable2)
	register("fig8", "Handover duration by HO type", "Figure 8", NeedDurations, runFig8)
	register("fig10", "Mobility metrics across device types", "Figure 10", NeedUEDay, runFig10)
	register("fig11", "Normalized district-level HOs and HOF rate per manufacturer", "Figure 11", NeedUEDay, runFig11)
}

func runTable2(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedTypes)
	if err != nil {
		return err
	}
	// Per-day shares give the ± spread the paper reports.
	type cell struct{ shares []float64 }
	var cells [3][ho.NumTypes + 1]cell
	for day := 0; day < s.days; day++ {
		var dayTotal float64
		for _, t := range ho.AllTypes() {
			for dev := 0; dev < 3; dev++ {
				dayTotal += float64(s.perDayTypeDev[day][t][dev])
			}
		}
		if dayTotal == 0 {
			continue
		}
		for dev := 0; dev < 3; dev++ {
			var devTotal float64
			for _, t := range ho.AllTypes() {
				share := float64(s.perDayTypeDev[day][t][dev]) / dayTotal
				cells[dev][t].shares = append(cells[dev][t].shares, share)
				devTotal += share
			}
			cells[dev][ho.NumTypes].shares = append(cells[dev][ho.NumTypes].shares, devTotal)
		}
	}
	fmtCell := func(c cell) string {
		if len(c.shares) == 0 {
			return "-"
		}
		m := stats.Mean(c.shares) * 100
		sd := stats.StdDev(c.shares) * 100
		if m < 0.001 {
			return "<0.001"
		}
		return fmt.Sprintf("%.2f ± %.2f", m, sd)
	}
	tbl := report.Table{
		Title:   "Share of all HOs (%), mean ± std over days",
		Columns: []string{"Device type", "Intra 4G/5G-NSA", "4G/5G-NSA to 3G", "4G/5G-NSA to 2G", "All"},
	}
	paper := map[devices.DeviceType]string{
		devices.Smartphone:   "paper: 88.28 / 5.84 / <0.001 / 94.12",
		devices.M2MIoT:       "paper: 5.73 / 0.02 / <0.001 / 5.75",
		devices.FeaturePhone: "paper: 0.13 / <0.001 / <0.001 / 0.13",
	}
	for _, dt := range devices.AllDeviceTypes() {
		tbl.Rows = append(tbl.Rows, []string{
			dt.String(),
			fmtCell(cells[dt][ho.Intra]),
			fmtCell(cells[dt][ho.To3G]),
			fmtCell(cells[dt][ho.To2G]),
			fmtCell(cells[dt][ho.NumTypes]),
		})
		art.AddNote("%s %s", dt, paper[dt])
	}
	art.AddTable(tbl)

	intraShare := float64(s.typeCounts[ho.Intra]) / float64(s.totalHOs)
	to3gShare := float64(s.typeCounts[ho.To3G]) / float64(s.totalHOs)
	art.AddNote("All devices: intra %.2f%% (paper 94.14%%), to 3G %.2f%% (paper 5.86%%).",
		100*intraShare, 100*to3gShare)
	return nil
}

func runFig8(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedDurations)
	if err != nil {
		return err
	}
	paperMed := map[ho.Type][2]float64{
		ho.Intra: {43, 92}, ho.To3G: {412, 1087}, ho.To2G: {1041, 3799},
	}
	tbl := report.Table{
		Title:   "Successful HO signaling time (ms)",
		Columns: []string{"HO type", "N", "Median", "p95", "Paper median", "Paper p95"},
	}
	for _, t := range ho.AllTypes() {
		d := s.durSuccess[t]
		if d.N() == 0 {
			tbl.Rows = append(tbl.Rows, []string{t.String(), "0", "-", "-",
				report.FormatFloat(paperMed[t][0]), report.FormatFloat(paperMed[t][1])})
			continue
		}
		q := d.Quantiles(0.5, 0.95)
		med, p95 := q[0], q[1]
		tbl.Rows = append(tbl.Rows, []string{
			t.String(), fmt.Sprintf("%d", d.N()),
			report.FormatFloat(med), report.FormatFloat(p95),
			report.FormatFloat(paperMed[t][0]), report.FormatFloat(paperMed[t][1]),
		})
	}
	art.AddTable(tbl)

	// ECDF series per type.
	for _, t := range ho.AllTypes() {
		d := s.durSuccess[t]
		if d.N() == 0 {
			continue
		}
		e, err := d.ECDF()
		if err != nil {
			return err
		}
		xs, fs := e.Points(24)
		art.AddSeries(report.Series{
			Title: "ECDF " + t.String(), XLabel: "ms", YLabel: "F(x)", X: xs, Y: fs,
		})
	}
	return nil
}

func runFig10(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedUEDay)
	if err != nil {
		return err
	}
	ds := a.DS
	sectors := make(map[devices.DeviceType][]float64)
	gyration := make(map[devices.DeviceType][]float64)
	for _, m := range s.ueDay {
		model := ds.Population.Model(&ds.Population.UEs[m.UE])
		sectors[model.Type] = append(sectors[model.Type], float64(m.Sectors))
		gyration[model.Type] = append(gyration[model.Type], float64(m.GyrationKm))
	}
	paper := map[devices.DeviceType][4]float64{ // medSec, p95Sec, medGyr, p95Gyr
		devices.Smartphone:   {22, 156, 2.7, 44.1},
		devices.M2MIoT:       {1, 26, 0.0, 20.1},
		devices.FeaturePhone: {3, 36, 0.9, 90.8},
	}
	tbl := report.Table{
		Title:   "Daily mobility metrics per device type (active UE-days)",
		Columns: []string{"Device type", "Sectors med", "Sectors p95", "Gyration med (km)", "Gyration p95 (km)", "Paper (med/p95 sec, med/p95 km)"},
	}
	for _, dt := range devices.AllDeviceTypes() {
		sec := sectors[dt]
		gyr := gyration[dt]
		if len(sec) == 0 {
			continue
		}
		p := paper[dt]
		secQ := stats.Quantiles(sec, 0.5, 0.95)
		gyrQ := stats.Quantiles(gyr, 0.5, 0.95)
		tbl.Rows = append(tbl.Rows, []string{
			dt.String(),
			report.FormatFloat(secQ[0]),
			report.FormatFloat(secQ[1]),
			report.FormatFloat(gyrQ[0]),
			report.FormatFloat(gyrQ[1]),
			fmt.Sprintf("%g/%g, %g/%g", p[0], p[1], p[2], p[3]),
		})
	}
	art.AddTable(tbl)
	art.AddNote("UE-days without any handover (fully idle or legacy-only devices) do not appear in the EPC trace; the paper's ECDFs share that property.")

	for _, dt := range devices.AllDeviceTypes() {
		if len(sectors[dt]) == 0 {
			continue
		}
		e, err := stats.NewECDF(sectors[dt])
		if err != nil {
			return err
		}
		xs, fs := e.Points(20)
		art.AddSeries(report.Series{Title: "ECDF sectors/day " + dt.String(), XLabel: "sectors", YLabel: "F(x)", X: xs, Y: fs})
	}
	return nil
}

// ManufacturerNormalized computes the paper's Fig 11 metric: for each
// (district, manufacturer), the average HOs per UE of that manufacturer
// divided by the district-wide average HOs per UE, and the analogous HOF
// rate ratio. Pairs with fewer than minUEs devices are excluded.
type ManufacturerNormalized struct {
	Manufacturer string
	HOBox        stats.Boxplot // distribution over districts
	HOFBox       stats.Boxplot
	// Pooled ratios aggregate over the whole country instead of per
	// district: they stay stable at simulation scales where many
	// district-manufacturer cells have zero failures.
	PooledHORatio  float64
	PooledHOFRatio float64
	UEs            int
}

// ManufacturerStats builds the Fig 11 distributions.
func (a *Analyzer) ManufacturerStats(ctx context.Context, minUEs int) ([]ManufacturerNormalized, error) {
	s, err := a.Require(ctx, NeedUEDay)
	if err != nil {
		return nil, err
	}
	ds := a.DS
	n := ds.Population.Len()

	// Per (district, manufacturer): UEs, HOs, fails. Per district: same.
	type agg struct {
		ues  int
		hos  int64
		fail int64
	}
	type distMfrKey struct {
		dist int
		mfr  string
	}
	byDistMfr := make(map[distMfrKey]*agg)
	byDist := make(map[int]*agg)
	for i := 0; i < n; i++ {
		// Only UEs observed in the EPC trace: the paper's per-UE averages
		// cover all RATs' signaling, while our capture is EPC-only, so
		// legacy-only and fully idle devices would deflate the district
		// average here in a way they do not in the paper.
		if s.ueHOs[i] == 0 {
			continue
		}
		ue := &ds.Population.UEs[i]
		model := ds.Population.Model(ue)
		key := distMfrKey{ue.HomeDistrict, model.Manufacturer}
		am := byDistMfr[key]
		if am == nil {
			am = &agg{}
			byDistMfr[key] = am
		}
		ad := byDist[ue.HomeDistrict]
		if ad == nil {
			ad = &agg{}
			byDist[ue.HomeDistrict] = ad
		}
		am.ues++
		ad.ues++
		am.hos += int64(s.ueHOs[i])
		ad.hos += int64(s.ueHOs[i])
		am.fail += int64(s.ueFails[i])
		ad.fail += int64(s.ueFails[i])
	}

	// Pooled (countrywide) aggregates per manufacturer.
	pooled := make(map[string]*agg)
	var overall agg
	for key, am := range byDistMfr {
		p := pooled[key.mfr]
		if p == nil {
			p = &agg{}
			pooled[key.mfr] = p
		}
		p.ues += am.ues
		p.hos += am.hos
		p.fail += am.fail
		overall.ues += am.ues
		overall.hos += am.hos
		overall.fail += am.fail
	}

	ratios := make(map[string][]float64)    // manufacturer -> HO ratios
	hofRatios := make(map[string][]float64) // manufacturer -> HOF rate ratios
	for key, am := range byDistMfr {
		if am.ues < minUEs || am.hos == 0 {
			continue
		}
		dist, mfr := key.dist, key.mfr
		ad := byDist[dist]
		if ad == nil || ad.hos == 0 {
			continue
		}
		mfrHOsPerUE := float64(am.hos) / float64(am.ues)
		distHOsPerUE := float64(ad.hos) / float64(ad.ues)
		if distHOsPerUE > 0 {
			ratios[mfr] = append(ratios[mfr], mfrHOsPerUE/distHOsPerUE)
		}
		mfrHOF := float64(am.fail) / float64(am.hos)
		distHOF := float64(ad.fail) / float64(ad.hos)
		if distHOF > 0 {
			hofRatios[mfr] = append(hofRatios[mfr], mfrHOF/distHOF)
		}
	}

	overallHOsPerUE := float64(overall.hos) / float64(overall.ues)
	overallHOF := float64(overall.fail) / float64(overall.hos)
	var out []ManufacturerNormalized
	for mfr, rs := range ratios {
		if len(rs) < 3 {
			continue
		}
		p := pooled[mfr]
		m := ManufacturerNormalized{
			Manufacturer: mfr,
			HOBox:        stats.BoxplotOf(rs),
			HOFBox:       stats.BoxplotOf(hofRatios[mfr]),
			UEs:          p.ues,
		}
		if overallHOsPerUE > 0 {
			m.PooledHORatio = float64(p.hos) / float64(p.ues) / overallHOsPerUE
		}
		if overallHOF > 0 && p.hos > 0 {
			m.PooledHOFRatio = float64(p.fail) / float64(p.hos) / overallHOF
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Manufacturer < out[j].Manufacturer })
	return out, nil
}

// MinUEsPerDistrictPair scales the paper's 1k-devices-per-pair exclusion
// to the configured population.
func (a *Analyzer) MinUEsPerDistrictPair() int {
	m := a.DS.Config.UEs / 2000
	if m < 4 {
		m = 4
	}
	return m
}

func runFig11(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	minUEs := a.MinUEsPerDistrictPair()
	rows, err := a.ManufacturerStats(ctx, minUEs)
	if err != nil {
		return err
	}
	art.AddNote("District-manufacturer pairs with <%d UEs excluded (paper: <1k at 40M scale).", minUEs)
	if len(rows) == 0 {
		// A small campaign can leave no manufacturer with three districts
		// above the threshold; say so instead of failing the whole report.
		art.AddNote("Insufficient data: no manufacturer has %d or more UEs in each of 3 or more districts.", minUEs)
		return nil
	}

	tbl := report.Table{
		Title:   "Normalized district-level HOs and HOF rate per manufacturer",
		Columns: []string{"Manufacturer", "HO ratio median", "HO ratio IQR", "HOF ratio median", "Pooled HO", "Pooled HOF", "Districts"},
	}
	// Top-5 first, then the most failure-prone of the rest.
	isTop := map[string]bool{}
	for _, m := range topManufacturers {
		isTop[m] = true
	}
	var top, rest []ManufacturerNormalized
	for _, r := range rows {
		if isTop[r.Manufacturer] {
			top = append(top, r)
		} else {
			rest = append(rest, r)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].HOFBox.Median > rest[j].HOFBox.Median })
	if len(rest) > 5 {
		rest = rest[:5]
	}
	addRow := func(r ManufacturerNormalized) {
		tbl.Rows = append(tbl.Rows, []string{
			r.Manufacturer,
			report.FormatFloat(r.HOBox.Median),
			fmt.Sprintf("%.2f-%.2f", r.HOBox.Q1, r.HOBox.Q3),
			report.FormatFloat(r.HOFBox.Median),
			report.FormatFloat(r.PooledHORatio),
			report.FormatFloat(r.PooledHOFRatio),
			fmt.Sprintf("%d", r.HOBox.N),
		})
	}
	for _, r := range top {
		addRow(r)
	}
	for _, r := range rest {
		addRow(r)
	}
	art.AddTable(tbl)
	art.AddNote("Paper anchors: top-5 ratios ≈1 (±10%%); Google HOF −27%%; niche outliers up to +600%% HOF (KVD, HMD) and +293%% HOs (Simcom).")

	// Quantified headline checks against the pooled (scale-stable) ratios.
	for _, r := range rows {
		switch r.Manufacturer {
		case "Google":
			art.AddNote("Google pooled HOF ratio: %.2f (paper ≈0.73).", r.PooledHOFRatio)
		case "KVD":
			art.AddNote("KVD pooled HOF ratio: %.2f (paper ≈7).", r.PooledHOFRatio)
		case "Simcom":
			art.AddNote("Simcom pooled HO ratio: %.2f (paper ≈3.9).", r.PooledHORatio)
		}
	}
	return nil
}
