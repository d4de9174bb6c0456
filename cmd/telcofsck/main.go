// Command telcofsck audits a campaign's trace store: it re-reads every
// partition file, checks it against the MANIFEST fingerprints (which
// cover each file's index footer) and the codec, and reports manifest
// entries whose files are gone and files the manifest does not cover.
// With -scrub it then repairs what it can — corrupt partitions, a
// damaged footer included, move (never delete) to quarantine/, and the
// MANIFEST is rewritten to the surviving set so the campaign serves its
// remaining days.
//
// Usage:
//
//	telcofsck -data ./campaign            # audit only (read-only)
//	telcofsck -data ./campaign -scrub     # audit + quarantine + repair
//	telcofsck -data ./campaign -json      # machine-readable report
//
// Exit status: 0 clean (or fully repaired by -scrub), 1 issues found
// and not repaired, 2 the audit itself failed. A -data that does not
// exist or is not a directory fails the audit, and nothing is created.
// A partition whose bytes
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
	"io"
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
	clean, err := run(ctx, os.Stdout, *data, *scrub, *asJSON)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "telcofsck:", err)
		os.Exit(2)
	}
	if !clean {
		os.Exit(1)
	}
}

// run audits the store in dir (and with scrub repairs it), writes the
// report to stdout, and reports whether the store is clean. An error
// means the audit itself failed.
func run(ctx context.Context, stdout io.Writer, dir string, scrub, asJSON bool) (clean bool, err error) {
	// NewFileStore creates a missing directory; an audit must not.
	fi, err := os.Stat(dir)
	if err != nil {
		return false, err
	}
	if !fi.IsDir() {
		return false, fmt.Errorf("%s is not a directory", dir)
	}
	store, err := trace.NewFileStore(dir)
	if err != nil {
		return false, err
	}

	var report *trace.VerifyReport
	var res *trace.ScrubResult
	if scrub {
		res, err = trace.Scrub(ctx, store)
		if err != nil {
			return false, err
		}
		report = res.Report
	} else {
		report, err = trace.Verify(ctx, store)
		if err != nil {
			return false, err
		}
	}
	quarantine, err := trace.LoadQuarantine(nil, dir)
	if err != nil {
		return false, err
	}

	if asJSON {
		out := map[string]any{"report": report}
		if res != nil {
			out["quarantined"] = res.Quarantined
			out["entries_dropped"] = res.EntriesDropped
		}
		if len(quarantine) > 0 {
			out["quarantine_log"] = quarantine
		}
		e := json.NewEncoder(stdout)
		e.SetIndent("", " ")
		if err := e.Encode(out); err != nil {
			return false, err
		}
	} else {
		printReport(stdout, dir, report, res, quarantine)
	}

	// After a scrub every issue has been resolved (quarantined or
	// pruned), so the store serves again: exit clean. A plain audit
	// exits 1 on any finding so CI and cron wrappers can alert.
	return report.OK() || res != nil, nil
}

func printReport(w io.Writer, dir string, report *trace.VerifyReport, res *trace.ScrubResult, quarantine []trace.QuarantineRecord) {
	fmt.Fprintf(w, "%s: %d partitions, %d records\n", dir, report.Partitions, report.Records)
	for _, issue := range report.Issues {
		fmt.Fprintf(w, "  CORRUPT %s\n", issue)
	}
	for _, p := range report.Missing {
		fmt.Fprintf(w, "  MISSING day %d shard %d: manifest entry without a file\n", p.Day, p.Shard)
	}
	for _, p := range report.Orphans {
		fmt.Fprintf(w, "  ORPHAN  day %d shard %d: file without a manifest entry\n", p.Day, p.Shard)
	}
	if res != nil {
		for _, p := range res.Quarantined {
			fmt.Fprintf(w, "  -> quarantined day %d shard %d\n", p.Day, p.Shard)
		}
		for _, p := range res.EntriesDropped {
			fmt.Fprintf(w, "  -> dropped manifest entry for day %d shard %d\n", p.Day, p.Shard)
		}
	}
	if days := trace.QuarantinedDays(quarantine); len(days) > 0 {
		fmt.Fprintf(w, "  quarantined days (excluded from serving): %v\n", days)
	}
	if report.OK() {
		fmt.Fprintln(w, "  clean")
	}
}
