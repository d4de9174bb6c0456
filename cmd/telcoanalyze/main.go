// Command telcoanalyze runs one experiment (a paper table or figure)
// against a campaign directory produced by telcogen.
//
// Usage:
//
//	telcoanalyze -data ./campaign -exp fig8
//	telcoanalyze -data ./campaign -exp table5 -parallel 8 -progress
//	telcoanalyze -data ./campaign -exp fig7 -from 7 -to 13   # week 2 only
//	telcoanalyze -data ./campaign -exp fig7 -from 7 -to 13 -v # + scan metrics
//	telcoanalyze -data ./campaign -exp table5 -cpuprofile cpu.pprof
//	telcoanalyze -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"telcolens"
)

func main() {
	var (
		data       = flag.String("data", "campaign", "campaign directory (from telcogen)")
		exp        = flag.String("exp", "", "experiment id (e.g. table2, fig8)")
		list       = flag.Bool("list", false, "list available experiments and exit")
		parallel   = flag.Int("parallel", 0, "scan parallelism (0 = GOMAXPROCS)")
		progress   = flag.Bool("progress", false, "report scan progress on stderr")
		verbose    = flag.Bool("v", false, "print scan metrics (partitions, records, blocks pruned/decoded, bytes) on stderr")
		finProfile = flag.Bool("finalizeprofile", false, "print the scan vs finalize wall-time split on stderr")
		fromDay    = flag.Int("from", -1, "first study day of the analysis window (-1 = study start)")
		toDay      = flag.Int("to", -1, "last study day of the analysis window, inclusive (-1 = study end)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *fromDay >= 0 && *toDay >= 0 && *fromDay > *toDay {
		fmt.Fprintf(os.Stderr, "telcoanalyze: empty window [%d, %d]\n", *fromDay, *toDay)
		os.Exit(2)
	}

	if *list {
		for _, e := range telcolens.Experiments() {
			fmt.Printf("%-8s %-12s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "telcoanalyze: -exp required (or -list)")
		os.Exit(2)
	}

	if err := run(*data, *exp, *parallel, *progress, *verbose, *finProfile, *fromDay, *toDay, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "telcoanalyze:", err)
		os.Exit(1)
	}
}

// run wraps the analysis so profiles are flushed on every exit path
// (fatal os.Exit would silently drop a pending CPU profile).
func run(data, exp string, parallel int, progress, verbose, finProfile bool, fromDay, toDay int, cpuprofile, memprofile string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	ds, err := telcolens.Load(data)
	if err != nil {
		return err
	}
	opts := []telcolens.Option{telcolens.WithParallelism(parallel)}
	if fromDay >= 0 || toDay >= 0 {
		// Time-windowed run: file stores skip the out-of-window blocks
		// instead of paying for a full-month scan.
		opts = append(opts, telcolens.WithWindow(fromDay, toDay))
	}
	if progress {
		opts = append(opts, telcolens.WithProgress(func(ev telcolens.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "\rscanning %d/%d partitions", ev.Done, ev.Total)
			if ev.Done == ev.Total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	a, err := telcolens.NewAnalyzer(ds, opts...)
	if err != nil {
		return err
	}
	if err := telcolens.RunExperiment(ctx, exp, a, os.Stdout); err != nil {
		return err
	}
	if verbose {
		printScanStats(a.ScanStats())
	}
	if finProfile {
		fmt.Fprintln(os.Stderr, a.ScanStats().ProfileSummary())
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize a settled heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func printScanStats(st telcolens.ScanStats) {
	fmt.Fprintln(os.Stderr, "scan:", st.Summary())
}
