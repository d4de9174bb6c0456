package analysis

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"telcolens/internal/ho"
	"telcolens/internal/simulate"
)

// smallShape is one campaign shape of the small-campaign sweep, with the
// shape-specific assertions it was added for.
type smallShape struct {
	name      string // subtest name; empty names the row by its shape
	ues, days int
	seed      uint64
	check     func(t *testing.T, a *Analyzer)
	// districts and sites size the world; 0 keeps the defaults (320
	// districts, 2400 sites). rareBoost scales the 2G fallback; 0 keeps
	// the default 1.
	districts, sites int
	rareBoost        float64
}

// TestSmallCampaignReportRenders sweeps campaign shapes far below the
// paper's scale. Every shape must render the whole report without error
// or panic, byte-identical between a 1-shard and a 4-shard campaign; the
// shapes that once failed also assert why their artifact is empty.
func TestSmallCampaignReportRenders(t *testing.T) {
	shapes := []smallShape{
		// At 300 UEs over 7 days, seeds 4 and 5 leave no manufacturer
		// with enough UEs in three districts for Figure 11.
		{ues: 300, days: 7, seed: 4, check: expectInsufficient("fig11")},
		{ues: 300, days: 7, seed: 5, check: expectInsufficient("fig11")},
		// At 50 UEs over 2 days (seed 1) the four outlier-filtered
		// sector-day rows are all intra HOs: with no 3G group, Table 8
		// does not identify the 3G coefficient.
		{ues: 50, days: 2, seed: 1, check: expectInsufficient("table8")},
		// A few failing sector-days leave Table 4's univariate fit with
		// one or two rows for two parameters, or one HO type only
		// (collinear), and every ANOVA factor with one group or one row
		// per group. With no failure at all Table 4 has no rows and
		// Figure 14a nothing to split; with handovers in one district
		// Figure 6 has nothing to correlate.
		{ues: 5, days: 1, seed: 1, check: expectInsufficient("table4", "anova")},
		{ues: 10, days: 1, seed: 1, check: expectInsufficient("table4", "anova")},
		{ues: 30, days: 1, seed: 1, check: expectInsufficient("table4", "anova")},
		{ues: 20, days: 2, seed: 8, check: expectInsufficient("table4", "anova")},
		{ues: 5, days: 1, seed: 2, check: expectInsufficient("table4", "anova", "fig14a")},
		{ues: 5, days: 1, seed: 5, check: expectInsufficient("table4", "anova", "fig14a", "fig6")},
		{ues: 200, days: 3, seed: 4},
	}
	for _, ues := range []int{5, 10, 20, 30} {
		for days := 1; days <= 3; days++ {
			for seed := uint64(1); seed <= 3; seed++ {
				shapes = append(shapes, smallShape{ues: ues, days: days, seed: seed})
			}
		}
	}
	runSmallShapes(t, shapes)
}

// TestSmallWorldReportRenders: the smallest world the generator builds,
// 8 districts of 8 sites (the census needs at least 8 districts, and the
// deployment one site per district), renders at every population and
// window, and so does a mix without 2G: a 2G fallback boost of 1e-12
// leaves no handover to 2G (a boost of 0 means the default boost, 1).
func TestSmallWorldReportRenders(t *testing.T) {
	var shapes []smallShape
	for seed := uint64(1); seed <= 3; seed++ {
		for _, sz := range []struct{ ues, days int }{{5, 1}, {50, 2}, {200, 3}} {
			shapes = append(shapes, smallShape{ues: sz.ues, days: sz.days, seed: seed, districts: 8, sites: 8})
		}
		shapes = append(shapes, smallShape{ues: 100, days: 2, seed: seed, districts: 8, sites: 8,
			rareBoost: 1e-12, check: expectNo2G})
	}
	runSmallShapes(t, shapes)
}

// TestSmallCampaignFullModelRenders: at 100 UEs (seed 3) and 200 UEs
// (seed 8) over 7 days, no outlier-filtered sector-day row lies in the
// Capital area, so the region dummies of the Table 5/7 design sum to the
// intercept.
func TestSmallCampaignFullModelRenders(t *testing.T) {
	runSmallShapes(t, []smallShape{
		{name: "ues100-seed3", ues: 100, days: 7, seed: 3, check: expectMissingCapital},
		{name: "ues200-seed8", ues: 200, days: 7, seed: 8, check: expectMissingCapital},
	})
}

// TestOneDayCampaignReportRenders: a one-day campaign has one night to
// detect homes on, so the night rule must not ask for more nights than
// the window holds. At 3 UEs the three resolved districts carry identical
// counts, which do not identify Figure 5's census fit.
func TestOneDayCampaignReportRenders(t *testing.T) {
	runSmallShapes(t, []smallShape{
		{name: "ues3", ues: 3, days: 1, seed: 1, check: expectOneNightFig5(false)},
		{name: "ues100", ues: 100, days: 1, seed: 1, check: expectOneNightFig5(true)},
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
			if sh.districts > 0 || sh.sites > 0 {
				name = fmt.Sprintf("districts%d-sites%d-%s", sh.districts, sh.sites, name)
			}
			if sh.rareBoost != 0 {
				name += fmt.Sprintf("-rareboost%g", sh.rareBoost)
			}
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
				if sh.districts > 0 {
					cfg.Districts = sh.districts
				}
				if sh.sites > 0 {
					cfg.SitesTarget = sh.sites
				}
				if sh.rareBoost != 0 {
					cfg.RareBoost = sh.rareBoost
				}
				cfg.Store = tempStore(t)
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

// expectNo2G asserts the campaign holds no handover to 2G.
func expectNo2G(t *testing.T, a *Analyzer) {
	s, err := a.Require(context.Background(), NeedDistricts)
	if err != nil {
		t.Fatal(err)
	}
	for i, counts := range s.districtType {
		if n := counts[ho.To2G]; n != 0 {
			t.Fatalf("district %d: %d handovers to 2G, want none", i, n)
		}
	}
}
