// Command telcoreport renders the paper's evaluation from a campaign
// directory written by telcogen: every table and figure from one fused
// parallel scan, or a single experiment with -exp.
//
// Usage:
//
//	telcoreport -data ./campaign                        # all 30 artifacts
//	telcoreport -data ./campaign -out report.txt -parallel 8
//	telcoreport -data ./campaign -exp fig8 -progress
//	telcoreport -data ./campaign -exp fig7 -from 7 -to 13 -v   # week 2 + scan metrics
//	telcoreport -data ./campaign -cpuprofile cpu.pprof -memprofile mem.pprof
//	telcoreport -list
//
// It exits 2 on a command line it cannot honour and 1 when the campaign,
// an experiment or the output fails.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"telcolens"
)

// errUsage is a rejected command line; run has already printed why,
// followed by the usage.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "telcoreport:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns every error, deferred ones
// included, so the profiles are flushed on each exit path and a short
// write or failed close of the report is an exit 1, never a truncated
// file behind an exit 0.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("telcoreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data       = fs.String("data", "campaign", "campaign directory (from telcogen)")
		exp        = fs.String("exp", "", "render only this experiment id, e.g. table2 or fig8 (empty = all)")
		list       = fs.Bool("list", false, "list the experiment ids and exit")
		parallel   = fs.Int("parallel", 0, "analysis scan parallelism (0 = GOMAXPROCS)")
		out        = fs.String("out", "", "output file (empty = stdout)")
		progress   = fs.Bool("progress", false, "report scan progress on stderr")
		verbose    = fs.Bool("v", false, "print scan metrics (partitions, records, blocks pruned/decoded, bytes) on stderr")
		finProf    = fs.Bool("finalizeprofile", false, "print the scan vs finalize wall-time split on stderr")
		fromDay    = fs.Int("from", -1, "first study day of the analysis window (-1 = study start)")
		toDay      = fs.Int("to", -1, "last study day of the analysis window, inclusive (-1 = study end); multi-day experiments (home detection) need a wide enough window")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // fs.Parse has printed the error and the usage
	}
	reject := func(format string, a ...any) error {
		fmt.Fprintf(stderr, "telcoreport: "+format+"\n", a...)
		fs.Usage()
		return errUsage
	}
	switch {
	case fs.NArg() > 0:
		return reject("unexpected argument %q (the campaign goes in -data)", fs.Arg(0))
	case *fromDay < -1 || *toDay < -1:
		return reject("-from and -to take a study day, or -1 for open")
	case *fromDay >= 0 && *toDay >= 0 && *fromDay > *toDay:
		return reject("empty window [%d, %d]", *fromDay, *toDay)
	}

	if *list {
		for _, e := range telcolens.Experiments() {
			if _, err := fmt.Fprintf(stdout, "%-8s %-12s %s\n", e.ID, e.PaperRef, e.Title); err != nil {
				return err
			}
		}
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}

	start := time.Now()
	ds, err := telcolens.Load(*data)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "campaign ready in %s\n", time.Since(start).Round(time.Millisecond))

	opts := []telcolens.Option{telcolens.WithParallelism(*parallel)}
	if *fromDay >= 0 || *toDay >= 0 {
		// Time-windowed run: file stores skip the out-of-window blocks
		// instead of paying for a full-month scan.
		opts = append(opts, telcolens.WithWindow(*fromDay, *toDay))
	}
	if *progress {
		opts = append(opts, telcolens.WithProgress(func(ev telcolens.ProgressEvent) {
			fmt.Fprintf(stderr, "\rscanning %d/%d partitions", ev.Done, ev.Total)
			if ev.Done == ev.Total {
				fmt.Fprintln(stderr)
			}
		}))
	}
	a, err := telcolens.NewAnalyzer(ds, opts...)
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		w = f
	}
	bw := bufio.NewWriter(w)
	if *exp != "" {
		err = telcolens.RunExperiment(ctx, *exp, a, bw)
	} else {
		err = telcolens.RunAll(ctx, a, bw)
	}
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	if *verbose {
		fmt.Fprintln(stderr, "scan:", a.ScanStats().Summary())
	}
	if *finProf {
		fmt.Fprintln(stderr, a.ScanStats().ProfileSummary())
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC() // materialize a settled heap before the snapshot
		return errors.Join(pprof.WriteHeapProfile(f), f.Close())
	}
	return nil
}
