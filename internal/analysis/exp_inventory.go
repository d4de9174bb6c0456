package analysis

import (
	"context"
	"fmt"

	"telcolens/internal/devices"
	"telcolens/internal/report"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

func init() {
	register("table1", "Dataset statistics", "Table 1", NeedTypes, runTable1)
	register("fig3a", "Deployment evolution 2009–2023", "Figure 3a", 0, runFig3a)
	register("fig3b", "Average daily RAT use and traffic shares", "Figure 3b", 0, runFig3b)
	register("fig4a", "Manufacturer share per device type", "Figure 4a", 0, runFig4a)
	register("fig4b", "Maximum supported RAT per device type", "Figure 4b", 0, runFig4b)
}

func runTable1(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedTypes)
	if err != nil {
		return err
	}
	ds := a.DS
	scale := ds.ScaleFactor()
	days := a.windowDays()
	dailyHOs := float64(s.totalHOs) / float64(days)
	// The paper's "≈8 TB daily" is the raw capture size, so the
	// comparable figure is the fixed-width record equivalent, not the
	// codec-dependent bytes on disk, which would make the artifact differ
	// across storage codecs.
	dailyBytes := float64(s.totalHOs) * trace.RecordSize / float64(days)

	// Deployment scale: the paper's network has 24k+ sites.
	siteScale := 24_000 / float64(len(ds.Network.Sites))

	art.AddNote("Simulation scale 1:%.0f for UEs, 1:%.1f for deployment; extrapolated column multiplies accordingly.",
		scale, siteScale)
	art.AddTable(report.Table{
		Title:   "Dataset statistics (measured vs paper)",
		Columns: []string{"Feature", "Measured", "Extrapolated", "Paper"},
		Rows: [][]string{
			{"Area covered", fmt.Sprintf("%s (%d districts)", ds.Country.Name, len(ds.Country.Districts)), "-", "Country in Europe (300+ districts)"},
			{"# of cell sites", fmt.Sprintf("%d", len(ds.Network.Sites)), fmt.Sprintf("%.0f", float64(len(ds.Network.Sites))*siteScale), "24k+"},
			{"# of radio sectors", fmt.Sprintf("%d", len(ds.Network.Sectors)), fmt.Sprintf("%.0f", float64(len(ds.Network.Sectors))*siteScale), "350k+"},
			{"# of UEs measured", fmt.Sprintf("%d", ds.Population.Len()), fmt.Sprintf("%.2g", float64(ds.Population.Len())*scale), "≈40M"},
			{"# handovers (daily)", fmt.Sprintf("%.0f", dailyHOs), fmt.Sprintf("%.3g", dailyHOs*scale), "1.7B+"},
			{"Measurement duration", fmt.Sprintf("%d days", days), "-", "4 weeks (28 days)"},
			{"Trace size (daily)", formatBytes(dailyBytes), formatBytes(dailyBytes * scale), "≈8 TB"},
		},
	})
	return nil
}

func formatBytes(b float64) string {
	switch {
	case b >= 1e12:
		return fmt.Sprintf("%.2f TB", b/1e12)
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2f KB", b/1e3)
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

func runFig3a(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	series := topology.EvolutionSeries()
	tbl := report.Table{
		Title:   "RAT share of deployed sectors per year",
		Columns: []string{"Year", "2G", "3G", "4G", "5G", "Total (norm.)"},
	}
	var years, totals []float64
	for _, y := range series {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", y.Year),
			report.FormatPct(y.Share[topology.TwoG]),
			report.FormatPct(y.Share[topology.ThreeG]),
			report.FormatPct(y.Share[topology.FourG]),
			report.FormatPct(y.Share[topology.FiveG]),
			report.FormatFloat(y.TotalNormalized),
		})
		years = append(years, float64(y.Year))
		totals = append(totals, y.TotalNormalized)
	}
	art.AddTable(tbl)
	art.AddSeries(report.Series{
		Title: "RAN deployment evolution (normalized)", XLabel: "year", YLabel: "sectors (norm.)",
		X: years, Y: totals,
	})
	art.AddNote("Paper anchors: 2023 mix 5G 8.4%%, 4G 55%%, 2G/3G ≈18.3%% each; ≈59%% growth 2018→2023.")

	// Current generated deployment as the 2023 ground truth.
	share := a.DS.Network.ShareByRAT()
	art.AddTable(report.Table{
		Title:   "Generated deployment RAT mix (2023 endpoint)",
		Columns: []string{"RAT", "Share", "Paper"},
		Rows: [][]string{
			{"5G", report.FormatPct(share[topology.FiveG]), "8.4%"},
			{"4G", report.FormatPct(share[topology.FourG]), "55%"},
			{"3G", report.FormatPct(share[topology.ThreeG]), "≈18.3%"},
			{"2G", report.FormatPct(share[topology.TwoG]), "≈18.3%"},
		},
	})
	return nil
}

func runFig3b(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	ds := a.DS
	// Average daily time share per RAT with min/max across days.
	var mins, maxs, sums [4]float64
	for i := range mins {
		mins[i] = 1
	}
	for _, day := range ds.DayStats {
		var tot float64
		for r := 0; r < 4; r++ {
			tot += day.RATTimeHours[r]
		}
		if tot == 0 {
			continue
		}
		for r := 0; r < 4; r++ {
			share := day.RATTimeHours[r] / tot
			sums[r] += share
			if share < mins[r] {
				mins[r] = share
			}
			if share > maxs[r] {
				maxs[r] = share
			}
		}
	}
	nDays := float64(len(ds.DayStats))
	tbl := report.Table{
		Title:   "Average daily RAT use (share of connectivity time)",
		Columns: []string{"RAT", "Mean", "Min", "Max", "Paper"},
	}
	paperTime := map[topology.RAT]string{
		topology.TwoG: "8.9%", topology.ThreeG: "8.9%", topology.FourG: "≈82% (4G/5G-NSA)",
	}
	for _, r := range []topology.RAT{topology.FourG, topology.ThreeG, topology.TwoG} {
		tbl.Rows = append(tbl.Rows, []string{
			ratLabel(r),
			report.FormatPct(sums[r] / nDays),
			report.FormatPct(mins[r]),
			report.FormatPct(maxs[r]),
			paperTime[r],
		})
	}
	art.AddTable(tbl)

	// Traffic volume shares.
	var ul, dl [4]float64
	var ulTot, dlTot float64
	for _, day := range ds.DayStats {
		for r := 0; r < 4; r++ {
			ul[r] += day.ULMB[r]
			dl[r] += day.DLMB[r]
			ulTot += day.ULMB[r]
			dlTot += day.DLMB[r]
		}
	}
	art.AddTable(report.Table{
		Title:   "Traffic volume share per RAT",
		Columns: []string{"RAT", "UL share", "DL share", "Paper UL", "Paper DL"},
		Rows: [][]string{
			{"4G/5G-NSA", report.FormatPct(ul[topology.FourG] / ulTot), report.FormatPct(dl[topology.FourG] / dlTot), "94.77%", "97.93%"},
			{"3G", report.FormatPct(ul[topology.ThreeG] / ulTot), report.FormatPct(dl[topology.ThreeG] / dlTot), "-", "-"},
			{"2G", report.FormatPct(ul[topology.TwoG] / ulTot), report.FormatPct(dl[topology.TwoG] / dlTot), "-", "-"},
		},
	})
	art.AddNote("Legacy RATs carry %.2f%% of UL and %.2f%% of DL (paper: 5.23%% and 2.07%%).",
		100*(1-ul[topology.FourG]/ulTot), 100*(1-dl[topology.FourG]/dlTot))
	return nil
}

func ratLabel(r topology.RAT) string {
	if r == topology.FourG {
		return "4G/5G-NSA"
	}
	return r.String()
}

func runFig4a(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	ds := a.DS
	typeCounts := make(map[devices.DeviceType]int)
	mfrCounts := make(map[devices.DeviceType]map[string]int)
	for i := range ds.Population.UEs {
		m := ds.Population.Model(&ds.Population.UEs[i])
		typeCounts[m.Type]++
		if mfrCounts[m.Type] == nil {
			mfrCounts[m.Type] = make(map[string]int)
		}
		mfrCounts[m.Type][m.Manufacturer]++
	}
	total := ds.Population.Len()
	paperTypeShare := map[devices.DeviceType]string{
		devices.Smartphone: "59.1%", devices.M2MIoT: "39.8%", devices.FeaturePhone: "1.1%",
	}
	for _, dt := range devices.AllDeviceTypes() {
		tbl := report.Table{
			Title: fmt.Sprintf("%s — %s of UEs (paper %s)", dt,
				report.FormatPct(float64(typeCounts[dt])/float64(total)), paperTypeShare[dt]),
			Columns: []string{"Manufacturer", "Share within type"},
		}
		for _, mc := range topShares(mfrCounts[dt], 6) {
			tbl.Rows = append(tbl.Rows, []string{mc.name,
				report.FormatPct(float64(mc.count) / float64(typeCounts[dt]))})
		}
		art.AddTable(tbl)
	}
	art.AddNote("Paper top manufacturers: smartphones Apple 54.8%%/Samsung 30.2%%; M2M Wistron 23.2%%/Toshiba 18.1%%; feature HMD 16.7%%/Doro 12.5%%.")
	return nil
}

type nameCount struct {
	name  string
	count int
}

func topShares(m map[string]int, k int) []nameCount {
	out := make([]nameCount, 0, len(m))
	for n, c := range m {
		out = append(out, nameCount{n, c})
	}
	sortNameCounts(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sortNameCounts(cs []nameCount) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && (cs[j].count > cs[j-1].count ||
			(cs[j].count == cs[j-1].count && cs[j].name < cs[j-1].name)); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func runFig4b(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	ds := a.DS
	counts := make(map[devices.DeviceType][4]int)
	typeTotals := make(map[devices.DeviceType]int)
	var allCounts [4]int
	for i := range ds.Population.UEs {
		m := ds.Population.Model(&ds.Population.UEs[i])
		c := counts[m.Type]
		c[m.MaxRAT]++
		counts[m.Type] = c
		typeTotals[m.Type]++
		allCounts[m.MaxRAT]++
	}
	tbl := report.Table{
		Title:   "Share of UEs by maximum supported RAT",
		Columns: []string{"Device type", "Up to 2G", "Up to 3G", "Up to 4G", "Up to 5G"},
	}
	row := func(label string, c [4]int, total int) []string {
		out := []string{label}
		for r := 0; r < 4; r++ {
			out = append(out, report.FormatPct(float64(c[r])/float64(total)))
		}
		return out
	}
	tbl.Rows = append(tbl.Rows, row("All", allCounts, ds.Population.Len()))
	for _, dt := range devices.AllDeviceTypes() {
		tbl.Rows = append(tbl.Rows, row(dt.String(), counts[dt], typeTotals[dt]))
	}
	art.AddTable(tbl)
	art.AddNote("Paper anchors: 12.6%% of UEs support only 2G, 20.1%% up to 3G; 48.5%% of smartphones are 5G-capable; >80%% of M2M tops out at 3G.")
	only2G := float64(allCounts[0]) / float64(ds.Population.Len())
	upTo3G := float64(allCounts[0]+allCounts[1]) / float64(ds.Population.Len())
	art.AddNote("Measured: only-2G %.1f%%, up-to-3G %.1f%%.", 100*only2G, 100*upTo3G)
	return nil
}
