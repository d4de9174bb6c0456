package analysis

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"telcolens/internal/ho"
	"telcolens/internal/simulate"
	"telcolens/internal/topology"
)

// windowRowsOracle aggregates the rows through (sector, type)- and
// sector-keyed maps, then sorts them into canonical (sector, type)
// order.
func windowRowsOracle(rows []SectorDayRow, f RowFilter) []SectorDayRow {
	type key struct {
		sector topology.SectorID
		t      ho.Type
	}
	agg := make(map[key]*SectorDayRow)
	totals := make(map[topology.SectorID]int32)
	for _, row := range rows {
		k := key{row.Sector, row.Type}
		w := agg[k]
		if w == nil {
			cp := row
			cp.Day = -1
			cp.TotalDayHOs = 0
			agg[k] = &cp
		} else {
			w.HOs += row.HOs
			w.Fails += row.Fails
		}
		totals[row.Sector] += row.HOs
	}
	out := make([]SectorDayRow, 0, len(agg))
	for _, w := range agg {
		w.TotalDayHOs = totals[w.Sector]
		if f.keep(w) {
			out = append(out, *w)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sector != out[j].Sector {
			return out[i].Sector < out[j].Sector
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// TestWindowRowsMatchesOracle: the dense slot table yields exactly the
// oracle's rows, in its order, on campaign C, on C's one-day window and
// on small shapes, for every row filter the experiments pass.
func TestWindowRowsMatchesOracle(t *testing.T) {
	shapes := []struct {
		ues, days, shards, districts, sites int
		seed                                uint64
		window                              bool
	}{
		{ues: 1000, days: 14, shards: 4, seed: 7},
		{ues: 1000, days: 14, shards: 4, seed: 7, window: true},
		{ues: 5, days: 1, shards: 1, seed: 1},
		{ues: 50, days: 2, shards: 2, seed: 1},
		{ues: 200, days: 3, shards: 1, seed: 4},
		{ues: 100, days: 2, shards: 1, seed: 2, districts: 8, sites: 8},
	}
	ctx := context.Background()
	for _, sh := range shapes {
		name := fmt.Sprintf("ues%d-days%d-seed%d-window%v", sh.ues, sh.days, sh.seed, sh.window)
		t.Run(name, func(t *testing.T) {
			cfg := simulate.DefaultConfig(sh.seed)
			cfg.UEs, cfg.Days, cfg.Shards = sh.ues, sh.days, sh.shards
			if sh.districts > 0 {
				cfg.Districts, cfg.SitesTarget = sh.districts, sh.sites
			}
			cfg.Store = tempStore(t)
			ds, err := simulate.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var opts []Option
			if sh.window {
				opts = append(opts, WithWindow(3, 3))
			}
			a, err := New(ds, opts...)
			if err != nil {
				t.Fatal(err)
			}
			s, err := a.Require(ctx, NeedSectorDay)
			if err != nil {
				t.Fatal(err)
			}
			filters := []RowFilter{{}, {NonZeroOnly: true}, a.outlierFilter(), {Exclude2G: true}}
			for _, f := range filters {
				got, err := a.WindowRows(ctx, f)
				if err != nil {
					t.Fatal(err)
				}
				want := windowRowsOracle(s.sectorDay, f)
				if len(got) != len(want) {
					t.Fatalf("filter %+v: %d rows, want %d", f, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("filter %+v: row %d = %+v, want %+v", f, i, got[i], want[i])
					}
				}
			}
		})
	}
}
