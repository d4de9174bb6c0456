package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"telcolens/internal/census"
	"telcolens/internal/ho"
	"telcolens/internal/report"
	"telcolens/internal/stats"
	"telcolens/internal/topology"
)

func init() {
	register("table3", "Sector-day regression dataset", "Table 3", NeedSectorDay, runTable3)
	register("table6", "Summary statistics of the regression dataset", "Table 6", NeedSectorDay, runTable6)
	register("table4", "Univariate linear model for log(HOF rate)", "Table 4", NeedSectorDay, runTable4)
	register("table5", "Full-covariate linear model", "Table 5", NeedSectorDay, runTable5)
	register("table7", "Linear model excluding HOs to 2G", "Table 7", NeedSectorDay, runTable7)
	register("table8", "Quantile regression without outliers", "Table 8", NeedSectorDay, runTable8)
	register("table9", "Quantile regression on all non-zero HOF rates", "Table 9", NeedSectorDay, runTable9)
	register("fig16", "ECDFs of HOF rates per HO type", "Figure 16", NeedSectorDay, runFig16)
	register("fig17", "Antenna vendor per region and HO type", "Figure 17", NeedTypes, runFig17)
	register("fig18", "HOF rates by vendor and area type", "Figure 18", NeedSectorDay, runFig18)
	register("anova", "ANOVA and Kruskal-Wallis for the HO-type effect", "§6.3 / Appendix B", NeedSectorDay, runANOVA)
}

// RowFilter selects sector-day observations for modeling.
type RowFilter struct {
	NonZeroOnly   bool
	MaxHOFRatePct float64 // 0 = unlimited
	MinHOs        int32   // 0 = unlimited
	MaxHOs        int32   // 0 = unlimited (applies to TotalDayHOs)
	Exclude2G     bool
}

// outlierFilter mirrors the paper's Table 5 trimming (HOF rate < 50%,
// daily HOs within band), with the HO band scaled to simulation volume.
func (a *Analyzer) outlierFilter() RowFilter {
	return RowFilter{
		NonZeroOnly:   true,
		MaxHOFRatePct: 50,
		MinHOs:        2,
		MaxHOs:        30_000,
	}
}

// RegressionRows returns the filtered sector-day dataset. The slice is
// memoized per filter against the current finalized state and shared
// between callers, so it must be treated as read-only.
func (a *Analyzer) RegressionRows(ctx context.Context, f RowFilter) ([]SectorDayRow, error) {
	s, err := a.Require(ctx, NeedSectorDay)
	if err != nil {
		return nil, err
	}
	a.rowCacheMu.Lock()
	defer a.rowCacheMu.Unlock()
	if a.rowCacheState != s {
		a.rowCacheState = s
		a.rowCache = make(map[RowFilter][]SectorDayRow)
	}
	if rows, ok := a.rowCache[f]; ok {
		return rows, nil
	}
	// Count first: the rows are allocated once at their exact size
	// rather than regrown through the whole dataset.
	n := 0
	for i := range s.sectorDay {
		if f.keep(&s.sectorDay[i]) {
			n++
		}
	}
	var out []SectorDayRow
	if n > 0 {
		out = make([]SectorDayRow, 0, n)
	}
	for i := range s.sectorDay {
		if f.keep(&s.sectorDay[i]) {
			out = append(out, s.sectorDay[i])
		}
	}
	a.rowCache[f] = out
	return out, nil
}

// keep reports whether the filter selects the row.
func (f RowFilter) keep(row *SectorDayRow) bool {
	switch {
	case f.NonZeroOnly && row.Fails == 0:
		return false
	case f.MaxHOFRatePct > 0 && row.HOFRatePct() >= f.MaxHOFRatePct:
		return false
	case f.MinHOs > 0 && row.TotalDayHOs < f.MinHOs:
		return false
	case f.MaxHOs > 0 && row.TotalDayHOs > f.MaxHOs:
		return false
	case f.Exclude2G && row.Type == ho.To2G:
		return false
	}
	return true
}

// hasType reports whether any row carries the given HO type. Dummy
// columns for absent types would be all-zero and make the design singular
// (2G rows vanish entirely at RareBoost=1 after outlier filtering).
func hasType(rows []SectorDayRow, t ho.Type) bool {
	for _, r := range rows {
		if r.Type == t {
			return true
		}
	}
	return false
}

// designHOType builds the dummy-coded design for HO type only:
// columns [To2G, To3G] (paper ordering), baseline intra. Absent types are
// dropped from the design.
func designHOType(rows []SectorDayRow) (y []float64, X [][]float64, names []string) {
	with2G := hasType(rows, ho.To2G)
	if with2G {
		names = append(names, "HO type: 4G/5G-NSA->2G")
	}
	names = append(names, "HO type: 4G/5G-NSA->3G")
	for _, r := range rows {
		y = append(y, math.Log(r.HOFRatePct()))
		var row []float64
		if with2G {
			row = append(row, b2f(r.Type == ho.To2G))
		}
		row = append(row, b2f(r.Type == ho.To3G))
		X = append(X, row)
	}
	return y, X, names
}

// designFull builds the Table 5 design: HO type, daily HOs, area, vendor,
// region and district population. Urban is the area baseline (the paper
// uses a third "unclassified postcode" baseline we do not have — noted in
// the artifact).
func designFull(rows []SectorDayRow, exclude2G bool) (y []float64, X [][]float64, names []string) {
	if !exclude2G && !hasType(rows, ho.To2G) {
		exclude2G = true // no 2G rows survive the filter; drop the column
	}
	names = []string{}
	if !exclude2G {
		names = append(names, "HO type: 4G/5G-NSA->2G")
	}
	names = append(names,
		"HO type: 4G/5G-NSA->3G",
		"Number of daily HOs",
		"Area Type: Rural",
		"Antenna Vendor: V2",
		"Antenna Vendor: V3",
		"Antenna Vendor: V4",
		"Sector Region: North",
		"Sector Region: South",
		"Sector Region: West",
		"District population",
	)
	for _, r := range rows {
		y = append(y, math.Log(r.HOFRatePct()))
		var row []float64
		if !exclude2G {
			row = append(row, b2f(r.Type == ho.To2G))
		}
		row = append(row,
			b2f(r.Type == ho.To3G),
			float64(r.TotalDayHOs),
			b2f(r.Area == census.Rural),
			b2f(r.Vendor == topology.V2),
			b2f(r.Vendor == topology.V3),
			b2f(r.Vendor == topology.V4),
			b2f(r.Region == census.North),
			b2f(r.Region == census.South),
			b2f(r.Region == census.West),
			float64(r.DistrictPop),
		)
		X = append(X, row)
	}
	return y, X, names
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func modelTable(m *stats.LinearModel, paper map[string]float64) report.Table {
	tbl := report.Table{
		Title:   fmt.Sprintf("N = %d, RMSE = %.3f, R² = %.4f, AIC = %.0f", m.N, m.RMSE, m.R2, m.AIC),
		Columns: []string{"Feature", "Coeff.", "Std Err", "t value", "Pr(>|t|)", "Paper coeff."},
	}
	for i, name := range m.Names {
		paperVal := "-"
		if v, ok := paper[name]; ok {
			paperVal = report.FormatFloat(v)
		}
		tbl.Rows = append(tbl.Rows, []string{
			name,
			report.FormatFloat(m.Coef[i]),
			report.FormatFloat(m.StdErr[i]),
			report.FormatFloat(m.TValue[i]),
			report.FormatFloat(m.PValue[i]),
			paperVal,
		})
	}
	return tbl
}

func runTable3(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	rows, err := a.RegressionRows(ctx, RowFilter{})
	if err != nil {
		return err
	}
	nonZero := 0
	for _, r := range rows {
		if r.Fails > 0 {
			nonZero++
		}
	}
	art.AddTable(report.Table{
		Title:   "Regression covariates over the sector-day dataset",
		Columns: []string{"Feature", "Values"},
		Rows: [][]string{
			{"Number of HOs per day", "≥ 0"},
			{"RATs (HO type)", "4G/5G-NSA, 3G, 2G"},
			{"District population", "≥ 0"},
			{"Sector Region", "West, South, North, Capital area"},
			{"Area Type", "Rural / Urban"},
			{"Antenna Vendor", "4 vendors (V1, V2, V3, V4)"},
		},
	})
	art.AddNote("Observations: %d sector-day-type rows (%d with failures). Paper: 6.7M observations at 40M-UE scale.", len(rows), nonZero)
	return nil
}

func runTable6(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	rows, err := a.RegressionRows(ctx, RowFilter{})
	if err != nil {
		return err
	}
	// Rows arrive in canonical (day, sector, type) order, so every
	// (sector, day) pair is one contiguous run — an adjacency check
	// dedups it without hashing a 100k-entry map.
	dailyHOs := make([]float64, 0, len(rows))
	rates := make([]float64, 0, len(rows))
	lastKey := int64(-1)
	for _, r := range rows {
		key := int64(r.Sector)<<16 | int64(r.Day)
		if key != lastKey {
			lastKey = key
			dailyHOs = append(dailyHOs, float64(r.TotalDayHOs))
		}
		rates = append(rates, r.HOFRatePct())
	}
	hoSum := stats.Summarize(dailyHOs)
	rateSum := stats.Summarize(rates)
	row := func(name string, s stats.Summary, paper string) []string {
		return []string{name,
			report.FormatFloat(s.Min), report.FormatFloat(s.Q1), report.FormatFloat(s.Median),
			report.FormatFloat(s.Mean), report.FormatFloat(s.Q3), report.FormatFloat(s.Max), paper}
	}
	art.AddTable(report.Table{
		Title:   "Summary statistics",
		Columns: []string{"Feature", "Min", "1st Qu", "Median", "Mean", "3rd Qu", "Max", "Paper (min/med/mean/max)"},
		Rows: [][]string{
			row("Daily HOs per sector", hoSum, "1 / 1989 / 6431 / 953287"),
			row("HOF rate (%)", rateSum, "0 / 0.069 / 6.131 / 100"),
		},
	})
	art.AddNote("Absolute HO volumes scale with the simulated population (1:%.0f); rate statistics are scale-free.", a.DS.ScaleFactor())
	return nil
}

// paperTable4/5/7 coefficients for side-by-side comparison.
var paperTable4 = map[string]float64{
	"(Intercept)":            -2.77,
	"HO type: 4G/5G-NSA->3G": 5.12,
	"HO type: 4G/5G-NSA->2G": 6.82,
}

var paperTable5 = map[string]float64{
	"(Intercept)":            -3.10,
	"HO type: 4G/5G-NSA->2G": 5.48,
	"HO type: 4G/5G-NSA->3G": 4.77,
	"Number of daily HOs":    -2.84e-5,
	"Area Type: Rural":       0.260,
	"Antenna Vendor: V2":     0.115,
	"Antenna Vendor: V3":     0.719,
	"Antenna Vendor: V4":     0.0629,
	"Sector Region: North":   -0.0728,
	"Sector Region: South":   -0.0168,
	"Sector Region: West":    0.398,
	"District population":    -1.75e-7,
}

var paperTable7 = map[string]float64{
	"(Intercept)":            -3.64,
	"HO type: 4G/5G-NSA->3G": 5.23,
	"Number of daily HOs":    -1.02e-5,
	"Area Type: Rural":       0.416,
	"Antenna Vendor: V2":     0.0241,
	"Antenna Vendor: V3":     1.00,
	"Antenna Vendor: V4":     0.227,
	"Sector Region: North":   -0.107,
	"Sector Region: South":   -0.0527,
	"Sector Region: West":    0.577,
	"District population":    -1.52e-7,
}

// FitHOTypeModel fits the Table 4 univariate model on non-zero HOF rates
// at sector-day granularity (the paper's unit of observation).
func (a *Analyzer) FitHOTypeModel(ctx context.Context) (*stats.LinearModel, error) {
	rows, err := a.RegressionRows(ctx, RowFilter{NonZeroOnly: true})
	if err != nil {
		return nil, err
	}
	y, X, names := designHOType(rows)
	return stats.FitOLS(y, X, names, true)
}

// WindowRows aggregates the sector-day dataset over the whole study window
// (one row per sector × HO type). At laptop scale, per-sector-day HO
// counts are small, so conditioning on "at least one failure" inflates the
// intra-4G/5G rates and compresses the HO-type contrast; window-level
// aggregation restores per-row volume and recovers coefficients close to
// the paper's.
func (a *Analyzer) WindowRows(ctx context.Context, f RowFilter) ([]SectorDayRow, error) {
	s, err := a.Require(ctx, NeedSectorDay)
	if err != nil {
		return nil, err
	}
	// One slot per (sector, type), at sector*NumTypes+type: ascending
	// slot order is the canonical (sector, type) row order the OLS fits
	// need. A slot keeps its first row (for the sector's covariates) and
	// the window sums.
	type slot struct {
		first      int32 // index+1 of the slot's first row; 0 = empty
		hos, fails int32
	}
	nSectors := 0
	for i := range s.sectorDay {
		nSectors = max(nSectors, int(s.sectorDay[i].Sector)+1)
	}
	nt := int(ho.NumTypes)
	slots := make([]slot, nSectors*nt)
	totals := make([]int32, nSectors)
	used := 0
	for i := range s.sectorDay {
		row := &s.sectorDay[i]
		sl := &slots[int(row.Sector)*nt+int(row.Type)]
		if sl.first == 0 {
			sl.first = int32(i + 1)
			used++
		}
		sl.hos += row.HOs
		sl.fails += row.Fails
		totals[row.Sector] += row.HOs
	}
	out := make([]SectorDayRow, 0, used)
	for k, sl := range slots {
		if sl.first == 0 {
			continue
		}
		w := s.sectorDay[sl.first-1]
		w.Day = -1
		w.HOs, w.Fails = sl.hos, sl.fails
		w.TotalDayHOs = totals[k/nt]
		if f.keep(&w) {
			out = append(out, w)
		}
	}
	return out, nil
}

// FitHOTypeModelWindow is FitHOTypeModel over window-aggregated rows.
func (a *Analyzer) FitHOTypeModelWindow(ctx context.Context) (*stats.LinearModel, error) {
	rows, err := a.WindowRows(ctx, RowFilter{NonZeroOnly: true})
	if err != nil {
		return nil, err
	}
	y, X, names := designHOType(rows)
	return stats.FitOLS(y, X, names, true)
}

// insufficientFit turns a fit its rows do not identify (stats.ErrSingular
// or stats.ErrEmpty: a small campaign with one or two failing sector-days,
// or none) into an "Insufficient data" note, as addFullModel does, and
// returns any other error.
func insufficientFit(art *report.Artifact, err error) error {
	if errors.Is(err, stats.ErrSingular) || errors.Is(err, stats.ErrEmpty) {
		art.AddNote("Insufficient data: the sector-day rows with at least one failure do not identify every coefficient, so the model is not fitted.")
		return nil
	}
	return err
}

func runTable4(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	m, err := a.FitHOTypeModel(ctx)
	if err != nil {
		return insufficientFit(art, err)
	}
	art.AddNote("Sector-day granularity (the paper's unit):")
	art.AddTable(modelTable(m, paperTable4))

	mw, err := a.FitHOTypeModelWindow(ctx)
	if err != nil {
		return insufficientFit(art, err)
	}
	art.AddNote("Window-aggregated granularity (corrects the small-count bias at simulation scale):")
	art.AddTable(modelTable(mw, paperTable4))
	// The headline effect sizes (paper: ×167 for 3G, ×916 for 2G).
	for i, name := range mw.Names {
		if name == "HO type: 4G/5G-NSA->3G" {
			art.AddNote("HOs to 3G multiply the HOF rate by %.0fx (paper ≈167x).", math.Exp(mw.Coef[i]))
		}
		if name == "HO type: 4G/5G-NSA->2G" {
			art.AddNote("HOs to 2G multiply the HOF rate by %.0fx (paper ≈916x).", math.Exp(mw.Coef[i]))
		}
	}
	art.AddNote("Response: log(HOF rate %%) over rows with at least one failure, as in the paper's non-zero analysis.")
	return nil
}

func runTable5(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	rows, err := a.RegressionRows(ctx, a.outlierFilter())
	if err != nil {
		return err
	}
	if err := addFullModel(art, rows, false, paperTable5); err != nil {
		return err
	}
	art.AddNote("Outlier filter: HOF rate < 50%%, daily HOs in [2, 30k] (paper: [50, 30k] at full scale).")
	art.AddNote("Area baseline is Urban (the paper's third 'unclassified postcode' level does not exist here), so only the Rural offset is estimated.")
	return nil
}

func runTable7(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	f := a.outlierFilter()
	f.Exclude2G = true
	rows, err := a.RegressionRows(ctx, f)
	if err != nil {
		return err
	}
	return addFullModel(art, rows, true, paperTable7)
}

// addFullModel fits the Table 5/7 design and adds its coefficient table.
// A small campaign can leave a covariate level without a single row (no
// Capital-area sector, no V4 antenna), and then the design does not
// identify every coefficient: the artifact says so instead of failing
// the whole report.
func addFullModel(art *report.Artifact, rows []SectorDayRow, exclude2G bool, paper map[string]float64) error {
	y, X, names := designFull(rows, exclude2G)
	m, err := stats.FitOLS(y, X, names, true)
	switch {
	case errors.Is(err, stats.ErrSingular), errors.Is(err, stats.ErrEmpty):
		msg := fmt.Sprintf("Insufficient data: the %d filtered sector-day rows do not identify every coefficient, so the model is not fitted", len(rows))
		if absent := absentLevels(rows); len(absent) > 0 {
			msg += fmt.Sprintf(" (no rows for %s)", strings.Join(absent, ", "))
		}
		art.AddNote("%s.", msg)
		return nil
	case err != nil:
		return err
	}
	art.AddTable(modelTable(m, paper))
	return nil
}

// absentLevels names the design's categorical levels, baselines
// included, that no row carries.
func absentLevels(rows []SectorDayRow) []string {
	var to3G bool
	var area [2]bool
	var vendor [4]bool
	var region [4]bool
	for i := range rows {
		r := &rows[i]
		to3G = to3G || r.Type == ho.To3G
		area[r.Area] = true
		vendor[r.Vendor] = true
		region[r.Region] = true
	}
	var out []string
	if !to3G {
		out = append(out, "HO type: 4G/5G-NSA->3G")
	}
	for _, at := range []census.AreaType{census.Rural, census.Urban} {
		if !area[at] {
			out = append(out, "Area Type: "+at.String())
		}
	}
	for _, v := range topology.AllVendors() {
		if !vendor[v] {
			out = append(out, "Antenna Vendor: "+v.String())
		}
	}
	for _, reg := range census.Regions() {
		if !region[reg] {
			out = append(out, "Sector Region: "+reg.String())
		}
	}
	return out
}

var paperQuantile = map[float64][2]float64{ // tau -> paper coef {2G, 3G}, outlier-filtered (Table 8)
	0.2: {5.80, 4.86},
	0.4: {5.88, 4.79},
	0.6: {5.84, 4.83},
	0.8: {5.72, 4.97},
}

// runQuantileTable renders Table 8 or 9 over the rows that filter selects.
func runQuantileTable(ctx context.Context, a *Analyzer, art *report.Artifact, filter RowFilter, paperRef string) error {
	rows, err := a.RegressionRows(ctx, filter)
	if err != nil {
		return err
	}
	addQuantileTable(art, rows, paperRef)
	return nil
}

// addQuantileTable adds the Table 8/9 coefficient table for rows, or an
// "Insufficient data" note. The tables are quantile regressions of
// log(HOF rate %) on HO-type dummies, intra as the baseline. That design
// is saturated, so each fit is solved group by group: the intercept is the
// intra group's τ-quantile and each coefficient is its group's τ-quantile
// minus the intra one (stats.LowerQuantileSorted). No design matrix is
// built.
func addQuantileTable(art *report.Artifact, rows []SectorDayRow, paperRef string) {
	var groups [ho.NumTypes][]float64
	for i := range rows {
		t := rows[i].Type
		groups[t] = append(groups[t], math.Log(rows[i].HOFRatePct()))
	}
	// The parameters are the intercept, the 3G coefficient and, when any
	// row is a 2G HO, the 2G one. As in addFullModel, a small campaign's
	// rows may not identify them all; say so instead of failing the report.
	params := 2
	if len(groups[ho.To2G]) > 0 {
		params++
	}
	if len(groups[ho.Intra]) == 0 || len(groups[ho.To3G]) == 0 || len(rows) <= params {
		art.AddNote("Insufficient data: the %d filtered sector-day rows do not identify every coefficient, so the model is not fitted.", len(rows))
		return
	}
	for _, g := range groups {
		sort.Float64s(g)
	}
	tbl := report.Table{
		Title:   fmt.Sprintf("Quantile regression of log(HOF rate %%) on HO type (N = %d)", len(rows)),
		Columns: []string{"tau", "(Intercept)", "Coef 2G", "Coef 3G", "Paper 2G", "Paper 3G"},
	}
	for _, tau := range []float64{0.2, 0.4, 0.6, 0.8} {
		intercept := stats.LowerQuantileSorted(groups[ho.Intra], tau)
		coef := func(t ho.Type) string {
			if len(groups[t]) == 0 {
				return "- (no rows)"
			}
			return report.FormatFloat(stats.LowerQuantileSorted(groups[t], tau) - intercept)
		}
		p := paperQuantile[tau]
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.1f", tau),
			report.FormatFloat(intercept),
			coef(ho.To2G),
			coef(ho.To3G),
			report.FormatFloat(p[0]),
			report.FormatFloat(p[1]),
		})
	}
	art.AddTable(tbl)
	art.AddNote("Paper reference: %s.", paperRef)
}

func runTable8(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	return runQuantileTable(ctx, a, art, a.outlierFilter(), "Table 8 (outlier-filtered)")
}

func runTable9(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	return runQuantileTable(ctx, a, art, RowFilter{NonZeroOnly: true}, "Table 9 (all non-zero HOF rates)")
}

func runFig16(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	views := []struct {
		name   string
		filter RowFilter
	}{
		{"all sector-days", RowFilter{}},
		{"non-zero HOF rates", RowFilter{NonZeroOnly: true}},
		{"non-zero, outlier-filtered", a.outlierFilter()},
	}
	for _, v := range views {
		rows, err := a.RegressionRows(ctx, v.filter)
		if err != nil {
			return err
		}
		byType := make(map[ho.Type][]float64)
		for _, r := range rows {
			byType[r.Type] = append(byType[r.Type], r.HOFRatePct())
		}
		tbl := report.Table{
			Title:   "HOF rate distribution per HO type — " + v.name,
			Columns: []string{"HO type", "N", "Median (%)", "p90 (%)", "Mean (%)"},
		}
		for _, t := range ho.AllTypes() {
			rates := byType[t]
			if len(rates) == 0 {
				continue
			}
			q := stats.Quantiles(rates, 0.5, 0.9)
			tbl.Rows = append(tbl.Rows, []string{
				t.String(), fmt.Sprintf("%d", len(rates)),
				report.FormatFloat(q[0]),
				report.FormatFloat(q[1]),
				report.FormatFloat(stats.Mean(rates)),
			})
		}
		art.AddTable(tbl)
	}
	art.AddNote("Paper anchor (§6.3): median HOF rates 0.04%% intra, 5.85%% →3G, 21.42%% →2G over all sector-days.")
	return nil
}

func runFig17(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	s, err := a.Require(ctx, NeedTypes)
	if err != nil {
		return err
	}
	shares := a.DS.Network.VendorShareByRegion()
	regTbl := report.Table{
		Title:   "Antenna vendor share per region (deployment)",
		Columns: []string{"Region", "V1", "V2", "V3", "V4"},
	}
	for _, reg := range census.Regions() {
		row := []string{reg.String()}
		for _, v := range topology.AllVendors() {
			row = append(row, report.FormatPct(shares[reg][v]))
		}
		regTbl.Rows = append(regTbl.Rows, row)
	}
	art.AddTable(regTbl)

	typeTbl := report.Table{
		Title:   "Antenna vendor share per HO type (source sector)",
		Columns: []string{"HO type", "V1", "V2", "V3", "V4"},
	}
	for _, t := range ho.AllTypes() {
		var total float64
		for _, c := range s.vendorByType[t] {
			total += float64(c)
		}
		row := []string{t.String()}
		for v := 0; v < 4; v++ {
			if total == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, report.FormatPct(float64(s.vendorByType[t][v])/total))
		}
		typeTbl.Rows = append(typeTbl.Rows, row)
	}
	art.AddTable(typeTbl)
	art.AddNote("Paper: vendors deploy asymmetrically across regions; all vendors participate in intra and →3G handovers in similar proportions.")
	return nil
}

func runFig18(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	rows, err := a.RegressionRows(ctx, RowFilter{NonZeroOnly: true})
	if err != nil {
		return err
	}
	byVendor := make(map[topology.Vendor][]float64)
	byArea := make(map[census.AreaType][]float64)
	for _, r := range rows {
		byVendor[r.Vendor] = append(byVendor[r.Vendor], r.HOFRatePct())
		byArea[r.Area] = append(byArea[r.Area], r.HOFRatePct())
	}
	vTbl := report.Table{
		Title:   "Non-zero HOF rate (%) by antenna vendor",
		Columns: []string{"Vendor", "N", "Q1", "Median", "Q3", "Mean"},
	}
	for _, v := range topology.AllVendors() {
		rates := byVendor[v]
		if len(rates) == 0 {
			continue
		}
		b := stats.BoxplotOf(rates)
		vTbl.Rows = append(vTbl.Rows, []string{
			v.String(), fmt.Sprintf("%d", b.N),
			report.FormatFloat(b.Q1), report.FormatFloat(b.Median),
			report.FormatFloat(b.Q3), report.FormatFloat(b.Mean),
		})
	}
	art.AddTable(vTbl)

	aTbl := report.Table{
		Title:   "Non-zero HOF rate (%) by area type",
		Columns: []string{"Area", "N", "Q1", "Median", "Q3", "Mean"},
	}
	for _, at := range []census.AreaType{census.Rural, census.Urban} {
		rates := byArea[at]
		if len(rates) == 0 {
			continue
		}
		b := stats.BoxplotOf(rates)
		aTbl.Rows = append(aTbl.Rows, []string{
			at.String(), fmt.Sprintf("%d", b.N),
			report.FormatFloat(b.Q1), report.FormatFloat(b.Median),
			report.FormatFloat(b.Q3), report.FormatFloat(b.Mean),
		})
	}
	art.AddTable(aTbl)
	art.AddNote("Paper: vendor effect significant but small (η²=0.02); area effect significant but small (η²=0.008); V3 skews high.")
	return nil
}

func runANOVA(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	rows, err := a.RegressionRows(ctx, RowFilter{NonZeroOnly: true})
	if err != nil {
		return err
	}
	logByType := make([][]float64, ho.NumTypes)
	logByVendor := make([][]float64, 4)
	logByArea := make([][]float64, 2)
	for _, r := range rows {
		l := math.Log(r.HOFRatePct())
		logByType[r.Type] = append(logByType[r.Type], l)
		logByVendor[r.Vendor] = append(logByVendor[r.Vendor], l)
		ai := 0
		if r.Area == census.Urban {
			ai = 1
		}
		logByArea[ai] = append(logByArea[ai], l)
	}

	tbl := report.Table{
		Title:   "One-way ANOVA / Kruskal-Wallis on log(HOF rate %)",
		Columns: []string{"Factor", "F", "p", "eta^2", "KW H", "KW p", "Paper eta^2"},
	}
	// Both tests refuse a factor only for its shape: fewer than two
	// non-empty groups, or no more rows than groups. A small campaign may
	// leave a factor so, and then it is skipped with a note.
	addFactor := func(name string, groups [][]float64, paperEta string) {
		av, err := stats.OneWayANOVA(groups)
		var kw *stats.KruskalWallisResult
		if err == nil {
			kw, err = stats.KruskalWallis(groups)
		}
		if err != nil {
			art.AddNote("Insufficient data: %s is not tested (%v).", name, err)
			return
		}
		tbl.Rows = append(tbl.Rows, []string{
			name,
			report.FormatFloat(av.F), report.FormatFloat(av.P), report.FormatFloat(av.EtaSq),
			report.FormatFloat(kw.H), report.FormatFloat(kw.P), paperEta,
		})
	}
	addFactor("HO type", logByType, "0.81")
	addFactor("Antenna vendor", logByVendor, "0.02")
	addFactor("Area type", logByArea, "0.008")
	if len(tbl.Rows) > 0 {
		art.AddTable(tbl)
	}

	// Post-hoc pairwise comparisons (Bonferroni-corrected Welch tests
	// standing in for Tukey's HSD; see DESIGN.md substitutions).
	cmp, err := stats.PairwisePostHoc(logByType, 0.05)
	if err == nil {
		post := report.Table{
			Title:   "Post-hoc pairwise HO-type comparisons (Welch + Bonferroni)",
			Columns: []string{"Pair", "Mean diff (log)", "p (adj.)", "Significant"},
		}
		labels := []string{"Intra", "->3G", "->2G"}
		for _, c := range cmp {
			post.Rows = append(post.Rows, []string{
				labels[c.A] + " vs " + labels[c.B],
				report.FormatFloat(c.Diff),
				report.FormatFloat(c.PAdjusted),
				fmt.Sprintf("%v", c.Significant),
			})
		}
		art.AddTable(post)
	}
	art.AddNote("Paper: F(2, 3857071) = 8.01e6, p < .001, eta^2 = 0.81; all pairwise differences significant.")
	return nil
}
