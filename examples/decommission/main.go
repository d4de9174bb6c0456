// Decommission: the operator workflow motivated by the paper's §5.2 and
// §8 takeaways — ranking districts by their dependence on legacy RATs to
// build a realistic 3G/2G sunset plan. Districts where 4G/5G-capable
// devices still execute many vertical handovers need coverage or device
// migration work before their legacy layers can be switched off.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"telcolens"
)

func main() {
	dir, err := os.MkdirTemp("", "telcolens-decommission-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := telcolens.NewFileStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(11)
	cfg.UEs = 4000
	cfg.Days = 7
	cfg.Store = store

	fmt.Println("Generating campaign for decommissioning analysis...")
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a, err := telcolens.NewAnalyzer(ds)
	if err != nil {
		log.Fatal(err)
	}

	// Rank districts by vertical-handover share (ignore tiny samples).
	ranked, err := a.RankLegacyDependence(context.Background(), 0, 50)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-12s %-10s %-12s %-10s %s\n", "District", "HOs", "Vertical%", "Density", "Sunset phase")
	fmt.Println("--------------------------------------------------------------------")
	var phase1, phase2, phase3 int
	for i, d := range ranked {
		var phase string
		switch {
		case d.VerticalPct < 1:
			phase = "1 (immediate)"
			phase1++
		case d.VerticalPct < 10:
			phase = "2 (after re-farming)"
			phase2++
		default:
			phase = "3 (needs 4G/5G build-out)"
			phase3++
		}
		if i < 12 || d.VerticalPct < 1 && i < 15 {
			fmt.Printf("%-12s %-10d %-12.2f %-10.0f %s\n", d.Name, d.HOs, d.VerticalPct, d.Density, phase)
		}
	}
	fmt.Printf("\nSunset plan over %d districts with enough traffic:\n", len(ranked))
	fmt.Printf("  phase 1 (vertical <1%%):   %d districts — legacy layers can switch off now\n", phase1)
	fmt.Printf("  phase 2 (vertical <10%%):  %d districts — decommission after spectrum re-farming\n", phase2)
	fmt.Printf("  phase 3 (vertical >=10%%): %d districts — still depend on 3G for coverage\n", phase3)

	// Drill into the most dependent district.
	if len(ranked) > 0 {
		p, err := a.DistrictProfile(context.Background(), ranked[0].DistrictID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nMost 3G-dependent district: %s (%s)\n", p.Name, p.Region)
		fmt.Printf("  population %d over %.0f km² (%.1f /km²)\n", p.Population, p.AreaKm2, p.Density)
		fmt.Printf("  %d sites / %d sectors; %d HOs (%.2f%% vertical to 3G, %.3f%% to 2G)\n",
			p.Sites, p.Sectors, p.HOs, p.Share3G*100, p.Share2G*100)
		fmt.Printf("  HOF rate %.3f%% — vertical handovers are the paper's main HOF driver (§6.3)\n", p.HOFRate*100)
	}
}
