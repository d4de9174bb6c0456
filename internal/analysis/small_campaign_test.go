package analysis

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"telcolens/internal/simulate"
)

// At 300 UEs over 7 days, seeds 4 and 5 leave no manufacturer with
// enough UEs in three districts for Figure 11. The report must still
// render every artifact, with Figure 11 saying why it is empty.
func TestSmallCampaignReportRenders(t *testing.T) {
	for _, seed := range []uint64{4, 5} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := simulate.DefaultConfig(seed)
			cfg.UEs, cfg.Days, cfg.Shards = 300, 7, 1
			ds, err := simulate.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(ds)
			if err != nil {
				t.Fatal(err)
			}
			if err := RunAll(context.Background(), a, io.Discard); err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			e, _ := ByID("fig11")
			art, err := e.Run(context.Background(), a)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := art.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "Insufficient data") {
				t.Fatalf("fig11 does not report insufficient data:\n%s", buf.String())
			}
		})
	}
}

// At 100 UEs (seed 3) and 200 UEs (seed 8) over 7 days, no outlier-filtered
// sector-day row lies in the Capital area, so the region dummies of the
// Table 5/7 design sum to the intercept. The report must still render,
// with both models saying why they are not fitted.
func TestSmallCampaignFullModelRenders(t *testing.T) {
	for _, shape := range []struct {
		ues  int
		seed uint64
	}{{100, 3}, {200, 8}} {
		t.Run(fmt.Sprintf("ues%d-seed%d", shape.ues, shape.seed), func(t *testing.T) {
			cfg := simulate.DefaultConfig(shape.seed)
			cfg.UEs, cfg.Days, cfg.Shards = shape.ues, 7, 1
			ds, err := simulate.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(ds)
			if err != nil {
				t.Fatal(err)
			}
			if err := RunAll(context.Background(), a, io.Discard); err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			for _, id := range []string{"table5", "table7"} {
				e, _ := ByID(id)
				art, err := e.Run(context.Background(), a)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := art.Render(&buf); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(buf.String(), "Insufficient data") ||
					!strings.Contains(buf.String(), "Sector Region: Capital area") {
					t.Fatalf("%s does not report the missing Capital-area rows:\n%s", id, buf.String())
				}
			}
		})
	}
}

// A one-day campaign has one night to detect homes on: the night rule
// must not ask for more nights than the window holds, so Figure 5 fits
// instead of failing the whole report. At 3 UEs the three resolved
// districts carry identical counts, which do not identify the census
// fit, and Figure 5 says so.
func TestOneDayCampaignReportRenders(t *testing.T) {
	for _, ues := range []int{3, 100} {
		t.Run(fmt.Sprintf("ues%d", ues), func(t *testing.T) {
			cfg := simulate.DefaultConfig(1)
			cfg.UEs, cfg.Days, cfg.Shards = ues, 1, 1
			ds, err := simulate.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(ds)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.DefaultMinNights(); got != 1 {
				t.Fatalf("DefaultMinNights = %d for a 1-day window, want 1", got)
			}
			e, _ := ByID("fig5")
			art, err := e.Run(context.Background(), a)
			if err != nil {
				t.Fatalf("fig5: %v", err)
			}
			var buf bytes.Buffer
			if err := art.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if fitted := strings.Contains(buf.String(), "R²"); fitted != (ues > 3) {
				t.Fatalf("fig5 fitted = %v at %d UEs:\n%s", fitted, ues, buf.String())
			}
			if ues == 3 && !strings.Contains(buf.String(), "Insufficient data") {
				t.Fatalf("fig5 does not report insufficient data:\n%s", buf.String())
			}
			if ues > 3 {
				if err := RunAll(context.Background(), a, io.Discard); err != nil {
					t.Fatalf("RunAll: %v", err)
				}
			}
		})
	}
}

// At 50 UEs over 2 days (seed 1) four filtered sector-day rows leave the
// quantile design of Tables 8 and 9 singular. The report must still
// render, with Table 8 saying why it is empty.
func TestSmallCampaignQuantileTablesRender(t *testing.T) {
	cfg := simulate.DefaultConfig(1)
	cfg.UEs, cfg.Days, cfg.Shards = 50, 2, 1
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunAll(context.Background(), a, io.Discard); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	e, _ := ByID("table8")
	art, err := e.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Insufficient data") {
		t.Fatalf("table8 does not report insufficient data:\n%s", buf.String())
	}
}
