// Incremental analysis walkthrough: the growing-campaign lifecycle end
// to end. A 5-day campaign is generated into a file store, fully
// analyzed, and the warm analysis state is checkpointed. Two more days
// land (the daily telco feed), the checkpoint is resumed and Refreshed —
// scanning only the new partitions, as the scan metrics prove — and an
// experiment re-renders from the merged state, byte-identical to what a
// cold full scan would produce.
//
// The same protocol runs continuously in cmd/telcoserve:
//
//	telcogen -out ./campaign -days 5 && telcoserve -data ./campaign
//	telcogen -out ./campaign -append 1    # served artifacts refresh
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"telcolens"
)

func main() {
	dir, err := os.MkdirTemp("", "telcolens-incremental-*")
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
	cfg.Days = 5
	cfg.Shards = 2
	cfg.Store = store

	fmt.Println("Day 0: generating the first 5 days of the campaign...")
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	a, err := telcolens.NewAnalyzer(ds)
	if err != nil {
		log.Fatal(err)
	}
	if err := telcolens.RunExperiment(ctx, "table2", a, os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Full scan so far: %s\n\n", a.ScanStats().Summary())

	// Persist the warm analysis state. In production this is a file next
	// to the store; telcoserve keeps it in memory across refreshes.
	var ckpt bytes.Buffer
	if err := a.Checkpoint(&ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Checkpointed %d bytes of mergeable collector state.\n\n", ckpt.Len())

	fmt.Println("Two more capture days land (telcogen -append 2)...")
	if err := ds.GenerateDays(2); err != nil {
		log.Fatal(err)
	}

	// Resume the checkpoint against the grown campaign and refresh:
	// only the new days' partitions are scanned and merged.
	resumed, err := telcolens.ResumeAnalyzer(ds, &ckpt)
	if err != nil {
		log.Fatal(err)
	}
	res, err := resumed.Refresh(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Refresh merged %d partitions (full rescan: %v) to cover %d days.\n",
		res.PartitionsScanned, res.FullRescan, res.Days)
	fmt.Printf("Refresh scan cost: %s\n\n", resumed.ScanStats().Summary())

	if err := telcolens.RunExperiment(ctx, "table2", resumed, os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("The refreshed artifact is byte-identical to a cold full rescan;")
	fmt.Println("see TestIncrementalEqualsFull and DESIGN.md §4 for the contract.")
}
