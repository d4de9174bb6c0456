package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// env is what one benchmark run shares: where things are, what was asked
// for, and the HTTP client every generator connection comes from.
type env struct {
	ctx     context.Context
	root    string // checkout root
	binDir  string // built programs under test
	tmp     string // this run's scratch, removed on exit
	outDir  string // bench/out: span files and result files
	seed    uint64
	seconds float64
	quick   bool
	shape   shape
	setups  int
	nproc   int
	hc      *http.Client
	log     io.Writer // human-readable progress and metrics (stderr)
	nextDir int
}

func newEnv(ctx context.Context, root string, seed uint64, seconds float64, quick bool) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	e := &env{
		ctx: ctx, root: root, binDir: filepath.Join(build, "bin"), tmp: tmp,
		outDir: filepath.Join(root, "bench", "out"),
		seed:   seed, seconds: seconds, quick: quick,
		shape: fullShape, setups: setupRepeats, nproc: runtime.NumCPU(),
		log: os.Stderr,
	}
	if quick {
		e.shape, e.setups = quickShape, 1
	}
	// One keep-alive connection per generator goroutine; never more idle
	// connections than the generator may hold open.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = e.nproc + 1
	e.hc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return e, nil
}

// close removes the run's scratch directory.
func (e *env) close() {
	e.hc.CloseIdleConnections()
	os.RemoveAll(e.tmp)
}

// dir returns a fresh path under the run's scratch directory.
func (e *env) dir(prefix string) string {
	e.nextDir++
	return filepath.Join(e.tmp, fmt.Sprintf("%s-%d", prefix, e.nextDir))
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// legSeconds scales a leg of the run to -seconds.
func (e *env) legSeconds(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// timeSetups performs a workload's set-up e.setups times, tearing down
// all but the last, and returns the state of the last one with the median
// set-up time. Set-up covers everything from an empty directory to the
// first timed op being possible: generating C, loading what the generator
// needs from it, and bringing the program under test up.
func timeSetups[T any](e *env, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var state T
	var took []float64
	for i := 0; i < e.setups; i++ {
		if i > 0 {
			teardown(state)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		state = s
		took = append(took, time.Since(start).Seconds())
	}
	return state, median(took), nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one workload run.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string          // what failed, for the log
	metrics   map[string]metric // the contract metrics of the run's mode
	info      map[string]metric // printed and stored, not gated
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, info: map[string]metric{}}
}

// fail records n failed ops (n may be 0 for a failed whole-run check,
// which still makes the run incorrect).
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

func (o *outcome) set(name string, v float64, unit string)  { o.metrics[name] = metric{v, unit} }
func (o *outcome) note(name string, v float64, unit string) { o.info[name] = metric{v, unit} }

// timing reports a latency sample the way the README promises: median,
// the highest percentile with at least ten samples beyond it, and n.
func (o *outcome) timing(name string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	s := sortedCopy(ms)
	p := supportedPercentile(len(s))
	o.note(name+"_p50_ms", percentile(s, 50), "ms")
	o.note(fmt.Sprintf("%s_p%g_ms", name, p), percentile(s, p), "ms")
	o.note(name+"_n", float64(len(s)), "count")
}
