// Quickstart: generate a small synthetic campaign and regenerate two of
// the paper's headline results — the handover mix per device type
// (Table 2) and the handover duration distributions (Figure 8).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"telcolens"
)

func main() {
	dir, err := os.MkdirTemp("", "telcolens-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := telcolens.NewFileStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(7)
	cfg.UEs = 2500
	cfg.Days = 7
	cfg.Shards = 4
	cfg.Store = store

	fmt.Println("Generating a 7-day campaign with 2,500 UEs (4 shards/day)...")
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Generated %d handovers across %d sectors in %d districts.\n\n",
		ds.TotalHandovers(), len(ds.Network.Sectors), len(ds.Country.Districts))

	a, err := telcolens.NewAnalyzer(ds)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range []string{"table2", "fig8"} {
		if err := telcolens.RunExperiment(ctx, id, a, os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("Run cmd/telcoreport to regenerate every table and figure.")
}
