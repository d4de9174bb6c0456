// Command telcobench is the repo's end-to-end benchmark (see README.md).
//
// It drives the real programs — telcogen, telcoreport, telcoserve, built
// from this checkout — from one generator process, over four workloads:
// report.cold (batch report), serve.read (read serving), serve.ingest
// (streaming ingest) and serve.mixed (reads beside writes). A separate
// traced run (-trace 1) replays each workload in-process through the
// layers' public functions and reports per-layer metrics.
//
//	bash bench/run.sh                                  # all workloads, then all traced
//	bash bench/run.sh -workload serve.read -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -repeat 5 -results bench/out/a.json
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
//
// With -workload, the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Everything meant for a
// reader goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// workloadDef is one workload: its end-to-end run and its traced replay.
type workloadDef struct {
	name   string
	run    func(*env) (*outcome, error)
	traced func(*env) (*outcome, error)
}

var workloads = []workloadDef{
	{"report.cold", runReportCold, tracedReportCold},
	{"serve.read", runServeRead, tracedServeRead},
	{"serve.ingest", runServeIngest, tracedServeIngest},
	{"serve.mixed", runServeMixed, tracedServeMixed},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// findRoot walks up from dir to the checkout root (the directory holding
// cmd/telcoserve), so `go run .` inside bench/ works as well as run.sh.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "telcoserve")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no telcolens checkout (cmd/telcoserve) at or above %s", dir)
		}
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printOutcome writes the human-readable account of a run to the log.
func printOutcome(e *env, name string, traced bool, o *outcome) {
	mode := "end to end"
	if traced {
		mode = "traced, in-process"
	}
	e.logf("\n== %s (%s, seed %d, %gs) — attempted %d, failed %d, fail_share %.6f",
		name, mode, e.seed, e.seconds, o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	for _, group := range []struct {
		title string
		m     map[string]metric
	}{{"metrics", o.metrics}, {"informational", o.info}} {
		names := make([]string, 0, len(group.m))
		for n := range group.m {
			names = append(names, n)
		}
		sort.Strings(names)
		e.logf("  %s:", group.title)
		for _, n := range names {
			e.logf("    %-32s %14.4f %s", n, group.m[n].Value, group.m[n].Unit)
		}
	}
	for _, p := range o.problems {
		e.logf("  PROBLEM: %s", p)
	}
}

// runOne runs one workload in one mode, logs it, and returns its outcome.
// A run that could not complete is an error; a run that completed with
// wrong outputs is an outcome with correct() false.
func runOne(e *env, w workloadDef, traced bool) (*outcome, error) {
	run := w.run
	if traced {
		run = w.traced
	}
	o, err := run(e)
	if o != nil {
		printOutcome(e, w.name, traced, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("%s: nothing was attempted", w.name)
	}
	return o, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		rootFlag = flag.String("root", "", "checkout root (default: found upward from the working directory)")
		workload = flag.String("workload", "", "run one workload and print the contract result line (default: all, end to end then traced)")
		seed     = flag.Uint64("seed", 1, "seed of every random choice: campaign, key permutation, Zipf draws, mix order")
		seconds  = flag.Float64("seconds", 10, "length of the timed part of a run")
		trace    = flag.Int("trace", 0, "1 = traced in-process replay reporting per-layer metrics; 0 = end to end")
		quick    = flag.Bool("quick", false, "about a tenth of the sizes, one set-up, 2 s; for smoke tests, not for numbers")
		repeat   = flag.Int("repeat", 0, "run the end-to-end set this many times and print median, quartiles and verdict per workload and metric")
		results  = flag.String("results", "", "with -repeat: write the runs to this file (default bench/out/results.json)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: a.json b.json")
	)
	flag.Parse()
	if *quick && !isSet("seconds") {
		*seconds = 2
	}

	root := *rootFlag
	if root == "" {
		var err error
		if root, err = findRoot("."); err != nil {
			fmt.Fprintln(os.Stderr, "telcobench:", err)
			return 2
		}
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "telcobench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "telcobench: -compare needs two result files")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, root, *seed, *seconds, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "telcobench:", err)
		return 2
	}
	defer e.close()

	e.logf("telcobench: seed %d, %gs per run, %d CPUs; campaign -ues %d -days %d -shards %d; every program knob at its default",
		e.seed, e.seconds, e.nproc, e.shape.ues, e.shape.days, e.shape.shards)
	e.logf("flush policy: codec v2 uncompressed; ingest WAL written per batch without fsync (-wal-sync off); seals, manifests and descriptors fsynced")
	if *trace == 0 || *workload == "" {
		built, err := buildTools(ctx, root, e.binDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "telcobench:", err)
			return 2
		}
		e.logf("build_s %.3f (not part of setup_s; near zero once Go's build cache is warm)", built.Seconds())
	}

	switch {
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "telcobench: unknown workload %q\n", *workload)
			return 2
		}
		o, err := runOne(e, w, *trace != 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "telcobench:", err)
			return 1
		}
		line, err := json.Marshal(resultLine{o.correct(), o.attempted, o.failed, o.metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "telcobench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !o.correct() {
			return 1
		}
		return 0
	case *repeat > 0:
		path := *results
		if path == "" {
			path = filepath.Join(e.outDir, "results.json")
		}
		return repeatSet(e, spec, *repeat, path)
	default:
		return runEverything(e)
	}
}

func isSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runEverything is the one command that prints every metric: each
// workload end to end, then traced, then what only the pair can say
// (HTTP overhead = end-to-end read median minus in-process engine
// median). Exit status 1 on any correctness failure.
func runEverything(e *env) int {
	status := 0
	for _, w := range workloads {
		var pair [2]*outcome
		for i, traced := range []bool{false, true} {
			o, err := runOne(e, w, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "telcobench:", err)
				return 1
			}
			if !o.correct() {
				status = 1
			}
			pair[i] = o
			line, _ := json.Marshal(map[string]any{"workload": w.name, "traced": traced,
				"result": resultLine{o.correct(), o.attempted, o.failed, o.metrics}})
			fmt.Println(string(line))
		}
		if w.name == "serve.read" {
			e.logf("  http_overhead_ms %.4f (serve.read end-to-end read p50 minus traced engine op mean)",
				pair[0].metrics["op_p50_ms"].Value-pair[1].metrics["op_wall_ms"].Value)
		}
	}
	return status
}
