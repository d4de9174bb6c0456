// Hofmodel: the paper's §6.3 modeling workflow as a library user would run
// it — build the sector-day dataset, test the HO-type effect with ANOVA,
// then quantify it with the univariate and full-covariate regressions
// (Tables 4 and 5).
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"telcolens"
)

func main() {
	dir, err := os.MkdirTemp("", "telcolens-hofmodel-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := telcolens.NewFileStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(23)
	cfg.UEs = 5000
	cfg.Days = 10
	cfg.Store = store
	// Boost 2G fallback so the rare 2G stratum has enough sector-days for
	// a stable coefficient at this small scale (see DESIGN.md).
	cfg.RareBoost = 100

	fmt.Println("Generating campaign for HOF modeling (2G stratum boosted x100)...")
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a, err := telcolens.NewAnalyzer(ds)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Step 1: the univariate model via the library API.
	m, err := a.FitHOTypeModel(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nUnivariate model: log(HOF rate %) ~ HO type")
	for i, name := range m.Names {
		fmt.Printf("  %-28s coef=%8.3f  se=%.4f  p=%.3g\n", name, m.Coef[i], m.StdErr[i], m.PValue[i])
	}
	for i, name := range m.Names {
		switch name {
		case "HO type: 4G/5G-NSA->3G":
			fmt.Printf("  → handovers to 3G multiply the failure rate by ≈%.0fx (paper: ≈167x)\n", math.Exp(m.Coef[i]))
		case "HO type: 4G/5G-NSA->2G":
			fmt.Printf("  → handovers to 2G multiply the failure rate by ≈%.0fx (paper: ≈916x)\n", math.Exp(m.Coef[i]))
		}
	}

	// Step 2: the full artifacts (ANOVA + Table 5) as rendered reports.
	for _, id := range []string{"anova", "table5"} {
		if err := telcolens.RunExperiment(ctx, id, a, os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
