package analysis

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"telcolens/internal/simulate"
)

// smallShape is one campaign shape of the small-campaign sweep, with the
// shape-specific assertions it was added for.
type smallShape struct {
	name      string // subtest name; empty names the row by its shape
	ues, days int
	seed      uint64
	check     func(t *testing.T, a *Analyzer)
}

// TestSmallCampaignReportRenders sweeps campaign shapes far below the
// paper's scale. Every shape must render the whole report without error
// or panic, byte-identical between a 1-shard and a 4-shard campaign; the
// shapes that once failed also assert why their artifact is empty.
func TestSmallCampaignReportRenders(t *testing.T) {
	shapes := []smallShape{
		// At 300 UEs over 7 days, seeds 4 and 5 leave no manufacturer
		// with enough UEs in three districts for Figure 11.
		{"", 300, 7, 4, expectInsufficient("fig11")},
		{"", 300, 7, 5, expectInsufficient("fig11")},
		// At 50 UEs over 2 days (seed 1) the four outlier-filtered
		// sector-day rows are all intra HOs: with no 3G group, Table 8
		// does not identify the 3G coefficient.
		{"", 50, 2, 1, expectInsufficient("table8")},
		// A few failing sector-days leave Table 4's univariate fit with
		// one or two rows for two parameters, or one HO type only
		// (collinear), and every ANOVA factor with one group or one row
		// per group. With no failure at all Table 4 has no rows and
		// Figure 14a nothing to split; with handovers in one district
		// Figure 6 has nothing to correlate.
		{"", 5, 1, 1, expectInsufficient("table4", "anova")},
		{"", 10, 1, 1, expectInsufficient("table4", "anova")},
		{"", 30, 1, 1, expectInsufficient("table4", "anova")},
		{"", 20, 2, 8, expectInsufficient("table4", "anova")},
		{"", 5, 1, 2, expectInsufficient("table4", "anova", "fig14a")},
		{"", 5, 1, 5, expectInsufficient("table4", "anova", "fig14a", "fig6")},
		{"", 200, 3, 4, nil},
	}
	for _, ues := range []int{5, 10, 20, 30} {
		for days := 1; days <= 3; days++ {
			for seed := uint64(1); seed <= 3; seed++ {
				shapes = append(shapes, smallShape{"", ues, days, seed, nil})
			}
		}
	}
	runSmallShapes(t, shapes)
}

// TestSmallCampaignFullModelRenders: at 100 UEs (seed 3) and 200 UEs
// (seed 8) over 7 days, no outlier-filtered sector-day row lies in the
// Capital area, so the region dummies of the Table 5/7 design sum to the
// intercept.
func TestSmallCampaignFullModelRenders(t *testing.T) {
	runSmallShapes(t, []smallShape{
		{"ues100-seed3", 100, 7, 3, expectMissingCapital},
		{"ues200-seed8", 200, 7, 8, expectMissingCapital},
	})
}

// TestOneDayCampaignReportRenders: a one-day campaign has one night to
// detect homes on, so the night rule must not ask for more nights than
// the window holds. At 3 UEs the three resolved districts carry identical
// counts, which do not identify Figure 5's census fit.
func TestOneDayCampaignReportRenders(t *testing.T) {
	runSmallShapes(t, []smallShape{
		{"ues3", 3, 1, 1, expectOneNightFig5(false)},
		{"ues100", 100, 1, 1, expectOneNightFig5(true)},
	})
}

// runSmallShapes renders the whole report of each shape on 1 and 4
// shards, requires the two to be byte-identical, and runs the shape's
// check on the 1-shard campaign.
func runSmallShapes(t *testing.T, shapes []smallShape) {
	t.Helper()
	seen := make(map[string]bool)
	for _, sh := range shapes {
		name := sh.name
		if name == "" {
			name = fmt.Sprintf("ues%d-days%d-seed%d", sh.ues, sh.days, sh.seed)
		}
		if seen[name] {
			continue // the sweep re-visits a shape listed above
		}
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			var reports [2][]byte
			for i, shards := range []int{1, 4} {
				cfg := simulate.DefaultConfig(sh.seed)
				cfg.UEs, cfg.Days, cfg.Shards = sh.ues, sh.days, shards
				ds, err := simulate.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				a, err := New(ds)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := RunAll(context.Background(), a, &buf); err != nil {
					t.Fatalf("RunAll (%d shards): %v", shards, err)
				}
				reports[i] = buf.Bytes()
				if i == 0 && sh.check != nil {
					sh.check(t, a)
				}
			}
			if !bytes.Equal(reports[0], reports[1]) {
				t.Fatal("report differs between 1 and 4 shards")
			}
		})
	}
}

// renderExp renders one experiment of a.
func renderExp(t *testing.T, a *Analyzer, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	art, err := e.Run(context.Background(), a)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := art.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// expectInsufficient asserts that each named artifact says why it is
// empty.
func expectInsufficient(ids ...string) func(*testing.T, *Analyzer) {
	return func(t *testing.T, a *Analyzer) {
		for _, id := range ids {
			if out := renderExp(t, a, id); !strings.Contains(out, "Insufficient data") {
				t.Fatalf("%s does not report insufficient data:\n%s", id, out)
			}
		}
	}
}

// expectMissingCapital asserts that Tables 5 and 7 name the absent
// Capital-area rows as the reason they are not fitted.
func expectMissingCapital(t *testing.T, a *Analyzer) {
	for _, id := range []string{"table5", "table7"} {
		out := renderExp(t, a, id)
		if !strings.Contains(out, "Insufficient data") ||
			!strings.Contains(out, "Sector Region: Capital area") {
			t.Fatalf("%s does not report the missing Capital-area rows:\n%s", id, out)
		}
	}
}

// expectOneNightFig5 asserts a one-night home-detection rule and whether
// Figure 5 fits its census model.
func expectOneNightFig5(fitted bool) func(*testing.T, *Analyzer) {
	return func(t *testing.T, a *Analyzer) {
		if got := a.DefaultMinNights(); got != 1 {
			t.Fatalf("DefaultMinNights = %d for a 1-day window, want 1", got)
		}
		out := renderExp(t, a, "fig5")
		if strings.Contains(out, "R²") != fitted {
			t.Fatalf("fig5 fitted = %v, want %v:\n%s", !fitted, fitted, out)
		}
		if !fitted && !strings.Contains(out, "Insufficient data") {
			t.Fatalf("fig5 does not report insufficient data:\n%s", out)
		}
	}
}
