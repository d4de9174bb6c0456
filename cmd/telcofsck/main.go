// Command telcofsck audits a campaign's trace store: it re-reads every
// partition stream, checks it against the MANIFEST fingerprints and the
// codec, validates .tlix sidecars, and reports manifest entries whose
// files are gone and files the manifest does not cover. With -scrub it
// then repairs what it can — corrupt partitions move (never delete) to
// quarantine/, bad sidecars are dropped, and the MANIFEST is rewritten
// to the surviving set so the campaign serves its remaining days.
//
// Usage:
//
//	telcofsck -data ./campaign            # audit only (read-only)
//	telcofsck -data ./campaign -scrub     # audit + quarantine + repair
//	telcofsck -data ./campaign -json      # machine-readable report
//
// Exit status: 0 clean (or fully repaired by -scrub), 1 issues found
// and not repaired, 2 the audit itself failed. A partition whose bytes
// match the MANIFEST but whose stream format this binary does not read
// fails the audit (status 2) and -scrub moves nothing: the message names
// the partition and format, and regenerating the campaign with telcogen
// makes it readable again.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"telcolens/internal/trace"
)

func main() {
	var (
		data   = flag.String("data", "campaign", "campaign directory to audit")
		scrub  = flag.Bool("scrub", false, "quarantine corrupt partitions and rewrite the manifest")
		asJSON = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, *data, *scrub, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "telcofsck:", err)
		os.Exit(2)
	}
}

func run(ctx context.Context, dir string, scrub, asJSON bool) error {
	store, err := trace.NewFileStore(dir)
	if err != nil {
		return err
	}

	var report *trace.VerifyReport
	var res *trace.ScrubResult
	if scrub {
		res, err = trace.Scrub(ctx, store)
		if err != nil {
			return err
		}
		report = res.Report
	} else {
		report, err = trace.Verify(ctx, store)
		if err != nil {
			return err
		}
	}
	quarantine, err := trace.LoadQuarantine(nil, dir)
	if err != nil {
		return err
	}

	if asJSON {
		out := map[string]any{"report": report}
		if res != nil {
			out["quarantined"] = res.Quarantined
			out["indexes_dropped"] = res.IndexesDropped
			out["entries_dropped"] = res.EntriesDropped
		}
		if len(quarantine) > 0 {
			out["quarantine_log"] = quarantine
		}
		e := json.NewEncoder(os.Stdout)
		e.SetIndent("", " ")
		if err := e.Encode(out); err != nil {
			return err
		}
	} else {
		printReport(dir, report, res, quarantine)
	}

	// After a scrub every issue has been resolved (quarantined, dropped,
	// or pruned), so the store serves again: exit clean. A plain audit
	// exits 1 on any finding so CI and cron wrappers can alert.
	if !report.OK() && res == nil {
		os.Exit(1)
	}
	return nil
}

func printReport(dir string, report *trace.VerifyReport, res *trace.ScrubResult, quarantine []trace.QuarantineRecord) {
	fmt.Printf("%s: %d partitions, %d records\n", dir, report.Partitions, report.Records)
	for _, issue := range report.Issues {
		fmt.Printf("  CORRUPT %s\n", issue)
	}
	for _, p := range report.Missing {
		fmt.Printf("  MISSING day %d shard %d: manifest entry without a file\n", p.Day, p.Shard)
	}
	for _, p := range report.Orphans {
		fmt.Printf("  ORPHAN  day %d shard %d: file without a manifest entry\n", p.Day, p.Shard)
	}
	if res != nil {
		for _, p := range res.Quarantined {
			fmt.Printf("  -> quarantined day %d shard %d\n", p.Day, p.Shard)
		}
		for _, p := range res.IndexesDropped {
			fmt.Printf("  -> dropped corrupt index for day %d shard %d\n", p.Day, p.Shard)
		}
		for _, p := range res.EntriesDropped {
			fmt.Printf("  -> dropped manifest entry for day %d shard %d\n", p.Day, p.Shard)
		}
	}
	if days := trace.QuarantinedDays(quarantine); len(days) > 0 {
		fmt.Printf("  quarantined days (excluded from serving): %v\n", days)
	}
	if report.OK() {
		fmt.Println("  clean")
	}
}
