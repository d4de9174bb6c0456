// Districtprofile: geodemographic drill-down (paper §4.3, §5.1) — compare
// the capital's dense urban core against the least-populated remote
// district: deployment density, handover volume, vertical fallback and
// failure rates, plus the inferred-vs-census population check.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"telcolens"
)

func main() {
	dir, err := os.MkdirTemp("", "telcolens-districtprofile-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := telcolens.NewFileStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(31)
	cfg.UEs = 5000
	cfg.Days = 7
	cfg.Store = store

	fmt.Println("Generating campaign for district profiling...")
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a, err := telcolens.NewAnalyzer(ds)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Locate the two landmark districts the paper singles out.
	capitalID, remoteID := -1, -1
	minDensity := 1e18
	for _, d := range ds.Country.Districts {
		if d.CapitalCenter {
			capitalID = d.ID
		}
		if d.Density() < minDensity {
			minDensity = d.Density()
			remoteID = d.ID
		}
	}

	show := func(id int, label string) *telcolens.DistrictProfile {
		p, err := a.DistrictProfile(ctx, id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %s (%s region)\n", label, p.Name, p.Region)
		fmt.Printf("  residents:        %d over %.0f km² (%.0f /km²)\n", p.Population, p.AreaKm2, p.Density)
		fmt.Printf("  deployment:       %d sites, %d sectors (%.1f sectors/km²)\n",
			p.Sites, p.Sectors, float64(p.Sectors)/p.AreaKm2)
		fmt.Printf("  handovers:        %d total, %.1f per km² per day\n", p.HOs, p.DailyHOsKm2)
		fmt.Printf("  HO mix:           %.2f%% intra, %.2f%% →3G, %.4f%% →2G\n",
			p.ShareIntra*100, p.Share3G*100, p.Share2G*100)
		fmt.Printf("  HOF rate:         %.3f%%\n", p.HOFRate*100)
		fmt.Printf("  inferred UEs:     %d (night-time home detection)\n", p.InferredUEs)
		return p
	}

	capital := show(capitalID, "Capital urban core")
	remote := show(remoteID, "Least populated district")

	fmt.Printf("\nContrast (paper: 2.1M vs 60 HOs/km²/day — a >10⁴x gap):\n")
	if remote.DailyHOsKm2 > 0 {
		fmt.Printf("  HO density ratio capital/remote: %.0fx\n", capital.DailyHOsKm2/remote.DailyHOsKm2)
	}
	fmt.Printf("  vertical fallback: capital %.2f%% vs remote %.2f%% of HOs (paper: <0.1%% vs up to 58.1%%)\n",
		(capital.Share3G+capital.Share2G)*100, (remote.Share3G+remote.Share2G)*100)
}
