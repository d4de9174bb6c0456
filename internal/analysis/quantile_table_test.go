package analysis

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"telcolens/internal/ho"
	"telcolens/internal/report"
)

// rateRows builds one sector-day row of HO type t per HOF rate in pcts,
// each with pct failures out of 100 HOs.
func rateRows(t ho.Type, pcts ...int32) []SectorDayRow {
	rows := make([]SectorDayRow, len(pcts))
	for i, pct := range pcts {
		rows[i] = SectorDayRow{Type: t, HOs: 100, Fails: pct}
	}
	return rows
}

// TestQuantileTableCells checks Tables 8/9 on hand-built rows: which row
// sets are "Insufficient data", and which order statistic each cell
// selects, ties and exact zeros included.
func TestQuantileTableCells(t *testing.T) {
	lg := func(pct float64) string { return report.FormatFloat(math.Log(pct)) }
	coef := func(pct, base float64) string { return report.FormatFloat(math.Log(pct) - math.Log(base)) }
	const noRows = "- (no rows)"
	cat := slices.Concat[[]SectorDayRow]
	cases := []struct {
		name string
		rows []SectorDayRow
		// want holds the (Intercept), Coef 2G and Coef 3G cells at τ =
		// 0.2, 0.4, 0.6, 0.8; nil wants the "Insufficient data" note.
		want [][3]string
	}{
		{"empty", nil, nil},
		{"no intra", cat(rateRows(ho.To3G, 10, 20, 30), rateRows(ho.To2G, 40)), nil},
		{"no 3G", cat(rateRows(ho.Intra, 1, 2, 3, 4), rateRows(ho.To2G, 40)), nil},
		{"n equals p", cat(rateRows(ho.Intra, 2), rateRows(ho.To3G, 20)), nil},
		{"n equals p with 2G", cat(rateRows(ho.Intra, 2), rateRows(ho.To3G, 20), rateRows(ho.To2G, 40)), nil},
		{
			// n = 3 intra rows and 2 3G rows: no n·τ is an integer, so
			// each cell is a unique optimum. No 2G row: no 2G column.
			"no 2G",
			cat(rateRows(ho.To3G, 50, 20), rateRows(ho.Intra, 8, 2, 4)),
			[][3]string{
				{lg(2), noRows, coef(20, 2)},
				{lg(4), noRows, coef(20, 4)},
				{lg(4), noRows, coef(50, 4)},
				{lg(8), noRows, coef(50, 8)},
			},
		},
		{
			// Five intra and five 3G rows: 5·τ is an integer k at every
			// τ, so the optimum is [y₍ₖ₎, y₍ₖ₊₁₎] and the lower end is
			// taken. The single 2G row is its own quantile.
			"tie",
			cat(rateRows(ho.Intra, 11, 2, 7, 3, 5), rateRows(ho.To3G, 60, 20, 40, 30, 50), rateRows(ho.To2G, 70)),
			[][3]string{
				{lg(2), coef(70, 2), coef(20, 2)},
				{lg(3), coef(70, 3), coef(30, 3)},
				{lg(5), coef(70, 5), coef(40, 5)},
				{lg(7), coef(70, 7), coef(50, 7)},
			},
		},
		{
			// Equal group quantiles give an exact 0 coefficient.
			"equal quantiles",
			cat(rateRows(ho.Intra, 2, 4, 8), rateRows(ho.To3G, 8, 4, 2)),
			[][3]string{
				{lg(2), noRows, "0"},
				{lg(4), noRows, "0"},
				{lg(4), noRows, "0"},
				{lg(8), noRows, "0"},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var art report.Artifact
			addQuantileTable(&art, c.rows, "Table 9")
			if c.want == nil {
				if len(art.Tables) != 0 || len(art.Notes) != 1 || !strings.HasPrefix(art.Notes[0], "Insufficient data") {
					t.Fatalf("want only an Insufficient data note, got notes %q and %d tables", art.Notes, len(art.Tables))
				}
				return
			}
			if len(art.Tables) != 1 {
				t.Fatalf("want one table, got %d (notes %q)", len(art.Tables), art.Notes)
			}
			tbl := art.Tables[0]
			if cols := []string{"tau", "(Intercept)", "Coef 2G", "Coef 3G", "Paper 2G", "Paper 3G"}; !reflect.DeepEqual(tbl.Columns, cols) {
				t.Fatalf("columns %q, want %q", tbl.Columns, cols)
			}
			for i, row := range tbl.Rows {
				if got := [3]string{row[1], row[2], row[3]}; got != c.want[i] {
					t.Errorf("tau=%s: cells %q, want %q", row[0], got, c.want[i])
				}
			}
		})
	}
}
