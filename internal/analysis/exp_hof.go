package analysis

import (
	"context"
	"fmt"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/ho"
	"telcolens/internal/report"
	"telcolens/internal/stats"
)

func init() {
	register("fig13", "HOF rate vs per-UE mobility metrics", "Figure 13", NeedUEDay, runFig13)
	register("fig14a", "HOF cause shares per HO type", "Figure 14a", NeedTypes|NeedCauses, runFig14a)
	register("fig14b", "HO signaling time per failure cause", "Figure 14b", NeedDurations, runFig14b)
	register("fig15", "HOF cause mix by device type, area and manufacturer", "Figure 15", NeedCauses, runFig15)
}

// Fig 13 bin edges, matching the paper's axes.
var (
	sectorBinEdges   = []float64{0, 5, 10, 25, 50, 100, 500, 1000, 10000}
	gyrationBinEdges = []float64{0, 0.01, 0.1, 1, 5, 10, 50, 100, 500} // km
)

// MobilityHOFBins aggregates per-UE daily-average mobility metrics against
// per-UE HOF rates, binned like Figure 13.
type MobilityHOFBins struct {
	Edges  []float64
	Median []float64 // median HOF rate (%) per bin
	P75    []float64
	UEs    []int
	ECDF   []float64 // cumulative share of UEs up to each bin
	Metric string
}

// MobilityHOF computes Fig 13 for metric "sectors" or "gyration".
func (a *Analyzer) MobilityHOF(ctx context.Context, metric string) (*MobilityHOFBins, error) {
	s, err := a.Require(ctx, NeedUEDay)
	if err != nil {
		return nil, err
	}
	// Daily averages per UE.
	type ueAgg struct {
		days    int
		sectors float64
		gyr     float64
		hos     int64
		fails   int64
	}
	aggs := make(map[uint32]*ueAgg)
	for _, m := range s.ueDay {
		ag := aggs[uint32(m.UE)]
		if ag == nil {
			ag = &ueAgg{}
			aggs[uint32(m.UE)] = ag
		}
		ag.days++
		ag.sectors += float64(m.Sectors)
		ag.gyr += float64(m.GyrationKm)
		ag.hos += int64(m.HOs)
		ag.fails += int64(m.Fails)
	}

	var edges []float64
	switch metric {
	case "sectors":
		edges = sectorBinEdges
	case "gyration":
		edges = gyrationBinEdges
	default:
		return nil, fmt.Errorf("analysis: unknown mobility metric %q", metric)
	}
	nBins := len(edges) - 1
	rates := make([][]float64, nBins)
	for _, ag := range aggs {
		if ag.hos == 0 {
			continue
		}
		v := ag.sectors / float64(ag.days)
		if metric == "gyration" {
			v = ag.gyr / float64(ag.days)
		}
		bin := nBins - 1
		for b := 0; b < nBins; b++ {
			if v <= edges[b+1] {
				bin = b
				break
			}
		}
		rates[bin] = append(rates[bin], 100*float64(ag.fails)/float64(ag.hos))
	}

	out := &MobilityHOFBins{Edges: edges, Metric: metric}
	total := 0
	for _, rs := range rates {
		total += len(rs)
	}
	cum := 0
	for b := 0; b < nBins; b++ {
		rs := rates[b]
		cum += len(rs)
		out.UEs = append(out.UEs, len(rs))
		out.ECDF = append(out.ECDF, float64(cum)/float64(total))
		if len(rs) == 0 {
			out.Median = append(out.Median, 0)
			out.P75 = append(out.P75, 0)
			continue
		}
		q := stats.Quantiles(rs, 0.5, 0.75)
		out.Median = append(out.Median, q[0])
		out.P75 = append(out.P75, q[1])
	}
	return out, nil
}

func runFig13(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	for _, metric := range []string{"sectors", "gyration"} {
		bins, err := a.MobilityHOF(ctx, metric)
		if err != nil {
			return err
		}
		tbl := report.Table{
			Title:   fmt.Sprintf("HOF rate vs daily %s", metric),
			Columns: []string{"Bin", "UEs", "UE ECDF", "HOF median (%)", "HOF p75 (%)"},
		}
		for b := 0; b < len(bins.Median); b++ {
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("(%g, %g]", bins.Edges[b], bins.Edges[b+1]),
				fmt.Sprintf("%d", bins.UEs[b]),
				report.FormatPct(bins.ECDF[b]),
				report.FormatFloat(bins.Median[b]),
				report.FormatFloat(bins.P75[b]),
			})
		}
		art.AddTable(tbl)
	}
	art.AddNote("Paper anchors: HOF ≈0 for 87%% of UEs (≤100 sectors/day); p75 rises to ≈0.4%% for high-mobility UEs (>100 sectors or >100 km gyration).")
	return nil
}

func runFig14a(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedTypes|NeedCauses)
	if err != nil {
		return err
	}
	if s.totalFails == 0 {
		art.AddNote("Insufficient data: the campaign has no handover failure to split by cause.")
		return nil
	}
	total := float64(s.totalFails)

	// Per-type totals (paper: intra 24.90%, →3G 75.07%, →2G 0.03%).
	var typeTotals [ho.NumTypes]float64
	for _, t := range ho.AllTypes() {
		typeTotals[t] = float64(s.typeFails[t]) / total * 100
	}
	art.AddNote("HOF split by type: intra %.2f%% (paper 24.90%%), →3G %.2f%% (paper 75.07%%), →2G %.3f%% (paper 0.03%%).",
		typeTotals[ho.Intra], typeTotals[ho.To3G], typeTotals[ho.To2G])

	tbl := report.Table{
		Title:   "Share of all HOFs per cause and HO type (%), with daily min/max",
		Columns: []string{"Cause", "Intra 4G/5G-NSA", "→3G", "→2G", "Total", "Daily min", "Daily max"},
	}
	var mainSum float64
	for ci := 1; ci <= 8; ci++ {
		var rowTotal float64
		cells := make([]string, 0, 7)
		cells = append(cells, fmt.Sprintf("#%d %s", ci, a.DS.Causes.ByCode(causes.Code(ci)).Title))
		for _, t := range ho.AllTypes() {
			share := float64(s.causeType[t][ci]) / total * 100
			rowTotal += share
			cells = append(cells, fmt.Sprintf("%.2f", share))
		}
		mainSum += rowTotal
		// Daily min/max of this cause's share of daily failures, over the
		// analysis window's days.
		lo, hi := a.windowSpan(s.days)
		minD, maxD := 100.0, 0.0
		for day := lo; day <= hi; day++ {
			var dayFails, dayCause float64
			for _, t := range ho.AllTypes() {
				dayFails += float64(s.perDayTypeFails[day][t])
				dayCause += float64(s.perDayCauseType[day][t][ci])
			}
			if dayFails == 0 {
				continue
			}
			share := dayCause / dayFails * 100
			if share < minD {
				minD = share
			}
			if share > maxD {
				maxD = share
			}
		}
		cells = append(cells, fmt.Sprintf("%.2f", rowTotal),
			fmt.Sprintf("%.2f", minD), fmt.Sprintf("%.2f", maxD))
		tbl.Rows = append(tbl.Rows, cells)
	}
	var otherTotal float64
	for _, t := range ho.AllTypes() {
		otherTotal += float64(s.causeType[t][0]) / total * 100
	}
	tbl.Rows = append(tbl.Rows, []string{"Other (1k+ vendor sub-causes)", "-", "-", "-",
		fmt.Sprintf("%.2f", otherTotal), "-", "-"})
	art.AddTable(tbl)
	art.AddNote("Top-8 causes explain %.1f%% of all HOFs (paper: 92%%).", mainSum)
	return nil
}

func runFig14b(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedDurations)
	if err != nil {
		return err
	}
	paperNote := map[int]string{
		1: ">2s median (cancellations)", 3: "0 ms (never initiates)",
		4: "81 ms median / 97 ms p95", 6: "0 ms (never initiates)",
		8: "≈10 s median (timeout)",
	}
	tbl := report.Table{
		Title:   "Signaling time of failed HOs per cause (ms)",
		Columns: []string{"Cause", "N", "Median", "p95", "Paper"},
	}
	for ci := 1; ci <= 8; ci++ {
		d := s.durCause[ci]
		q := d.Quantiles(0.5, 0.95)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("#%d", ci), fmt.Sprintf("%d", d.N()),
			report.FormatFloat(q[0]), report.FormatFloat(q[1]), paperNote[ci],
		})
	}
	art.AddTable(tbl)

	for _, ci := range []int{1, 4, 8} {
		d := s.durCause[ci]
		if d.N() == 0 {
			continue
		}
		e, err := d.ECDF()
		if err != nil {
			return err
		}
		xs, fs := e.Points(16)
		art.AddSeries(report.Series{Title: fmt.Sprintf("ECDF cause #%d", ci), XLabel: "ms", YLabel: "F(x)", X: xs, Y: fs})
	}
	return nil
}

func runFig15(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedCauses)
	if err != nil {
		return err
	}
	shareRow := func(counts [nCauseIdx]int64) []string {
		var total float64
		for _, c := range counts {
			total += float64(c)
		}
		out := make([]string, 0, nCauseIdx)
		for ci := 1; ci <= 8; ci++ {
			if total == 0 {
				out = append(out, "-")
				continue
			}
			out = append(out, fmt.Sprintf("%.1f", float64(counts[ci])/total*100))
		}
		if total == 0 {
			out = append(out, "-")
		} else {
			out = append(out, fmt.Sprintf("%.1f", float64(counts[0])/total*100))
		}
		return out
	}
	cols := []string{"Group", "#1", "#2", "#3", "#4", "#5", "#6", "#7", "#8", "Other"}

	devTbl := report.Table{Title: "HOF causes per device type (%)", Columns: cols}
	for _, dt := range devices.AllDeviceTypes() {
		devTbl.Rows = append(devTbl.Rows, append([]string{dt.String()}, shareRow(s.causeByDev[dt])...))
	}
	art.AddTable(devTbl)

	areaTbl := report.Table{Title: "HOF causes per area type (%)", Columns: cols}
	areaTbl.Rows = append(areaTbl.Rows, append([]string{"Rural"}, shareRow(s.causeByArea[0])...))
	areaTbl.Rows = append(areaTbl.Rows, append([]string{"Urban"}, shareRow(s.causeByArea[1])...))
	art.AddTable(areaTbl)

	mfrTbl := report.Table{Title: "HOF causes for top-5 smartphone manufacturers × area (%)", Columns: cols}
	for _, m := range topManufacturers {
		byMfr := s.causeByMfr[m]
		mfrTbl.Rows = append(mfrTbl.Rows, append([]string{m + "-Rural"}, shareRow(byMfr[0])...))
		mfrTbl.Rows = append(mfrTbl.Rows, append([]string{m + "-Urban"}, shareRow(byMfr[1])...))
	}
	art.AddTable(mfrTbl)

	art.AddNote("Paper anchors: 59%% of M2M/IoT failures are cause #3; 42%% of feature-phone failures cause #6; 42%% of urban HOFs cause #4; #1 is 50%% more prevalent in rural areas; #8 is ×3 in M2M.")
	return nil
}
