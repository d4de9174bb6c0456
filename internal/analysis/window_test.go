package analysis

import (
	"context"
	"fmt"
	"math"
	"testing"

	"telcolens/internal/simulate"
)

// TestWindowPerDayAverages: under a one-day window [d, d] every per-day
// average divides by that one day, not by the study length. Table 1's
// daily handovers equal day d's record count, the home-detection rule
// asks for one night, and a district profile's daily HOs/km² is its
// in-window HO count over its area. Without a window the divisor stays
// the whole study.
func TestWindowPerDayAverages(t *testing.T) {
	cfg := simulate.DefaultConfig(3)
	cfg.UEs, cfg.Days, cfg.Store = 200, 3, tempStore(t)
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ds.Config.Store.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	perDay := make([]int64, cfg.Days)
	for _, p := range m.Partitions {
		perDay[p.Day] += p.Records
	}
	ctx := context.Background()
	check := func(a *Analyzer, label string, days int, records int64) {
		t.Helper()
		e, _ := ByID("table1")
		art, err := e.Run(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, row := range art.Tables[0].Rows {
			got[row[0]] = row[1]
		}
		if want := fmt.Sprintf("%.0f", float64(records)/float64(days)); got["# handovers (daily)"] != want {
			t.Errorf("%s: table1 daily HOs = %s, want %s", label, got["# handovers (daily)"], want)
		}
		if want := fmt.Sprintf("%d days", days); got["Measurement duration"] != want {
			t.Errorf("%s: table1 duration = %s, want %s", label, got["Measurement duration"], want)
		}
		s, err := a.Require(ctx, NeedDistricts)
		if err != nil {
			t.Fatal(err)
		}
		busiest := 0
		for i, n := range s.districtHOs {
			if n > s.districtHOs[busiest] {
				busiest = i
			}
		}
		p, err := a.DistrictProfile(ctx, busiest)
		if err != nil {
			t.Fatal(err)
		}
		if p.HOs == 0 {
			t.Fatalf("%s: no district has handovers", label)
		}
		if want := float64(p.HOs) / float64(days) / p.AreaKm2; math.Abs(p.DailyHOsKm2-want) > 1e-12*want {
			t.Errorf("%s: DailyHOsKm2 = %g, want %g", label, p.DailyHOsKm2, want)
		}
	}
	for d := 0; d < cfg.Days; d++ {
		a, err := New(ds, WithWindow(d, d))
		if err != nil {
			t.Fatal(err)
		}
		check(a, fmt.Sprintf("window [%d, %d]", d, d), 1, perDay[d])
		if got := a.DefaultMinNights(); got != 1 {
			t.Errorf("window [%d, %d]: DefaultMinNights = %d, want 1", d, d, got)
		}
	}
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	check(a, "no window", cfg.Days, m.TotalRecords())
	if got := a.DefaultMinNights(); got != 2 {
		t.Errorf("no window: DefaultMinNights = %d, want 2", got)
	}
}
