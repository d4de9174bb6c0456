package analysis

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"telcolens/internal/report"
)

// Experiment regenerates one paper table or figure from a dataset. Needs
// declares the scan-state units the experiment consumes; Run computes
// exactly those (in one fused parallel pass when several are missing)
// before invoking the body.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Needs    Need
	Run      func(ctx context.Context, a *Analyzer) (*report.Artifact, error)
}

var (
	registry []Experiment
	byID     = make(map[string]int)
)

// register wires an experiment body into the registry; the body receives a
// pre-labelled artifact to fill and may assume its Needs are computed.
func register(id, title, paperRef string, needs Need, run func(ctx context.Context, a *Analyzer, art *report.Artifact) error) {
	if _, dup := byID[id]; dup {
		panic("analysis: duplicate experiment id " + id)
	}
	e := Experiment{
		ID:       id,
		Title:    title,
		PaperRef: paperRef,
		Needs:    needs,
		Run: func(ctx context.Context, a *Analyzer) (*report.Artifact, error) {
			if needs != 0 {
				if _, err := a.Require(ctx, needs); err != nil {
					return nil, err
				}
			}
			art := &report.Artifact{ID: id, Title: title, PaperRef: paperRef}
			if err := run(ctx, a, art); err != nil {
				return nil, err
			}
			return art, nil
		},
	}
	byID[id] = len(registry)
	registry = append(registry, e)
}

// Experiments lists all registered experiments in registration order
// (which follows the paper's presentation order).
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID resolves an experiment, or false.
func ByID(id string) (Experiment, bool) {
	idx, ok := byID[id]
	if !ok {
		return Experiment{}, false
	}
	return registry[idx], true
}

// IDs returns all experiment IDs sorted alphabetically.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// Outcome is one experiment's result from RunEach: the artifact, or the
// error that stopped it.
type Outcome struct {
	Artifact *report.Artifact
	Err      error
}

// RunEach runs every registered experiment against the analyzer and
// returns one Outcome per experiment, in registration order. The bodies
// fan out on RunPool, bounded by the analyzer's parallelism: they are
// pure readers of the finalized scan state, and each first Requires its
// own needs, which serializes on the analyzer. Callers wanting one fused
// trace pass Require the union of the needs beforehand, as RunAll does.
func RunEach(ctx context.Context, a *Analyzer) []Outcome {
	out := make([]Outcome, len(registry))
	RunPool(a.parallelism, len(registry), func(i int) {
		art, err := registry[i].Run(ctx, a)
		out[i] = Outcome{Artifact: art, Err: err}
	})
	return out
}

// RunPool is the experiment pool: it calls fn(i) for every i in [0, n)
// on parallelism workers (GOMAXPROCS when parallelism ≤ 0), at most n,
// and returns when every call has. RunEach runs the registered
// experiments on it; a caller that memoizes their renderings drives it
// with its own fn.
func RunPool(parallelism, n int, fn func(i int)) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RunAll executes every experiment against the analyzer, rendering each
// artifact to w. The first scan computes the union of every experiment's
// needs in one fused pass, so the whole report costs a single trace read;
// the bodies then run on RunEach's pool. Rendering stays sequential in
// registration order, so the report bytes are identical to the serial
// execution, and the first failing experiment fails the report.
func RunAll(ctx context.Context, a *Analyzer, w io.Writer) error {
	var union Need
	for _, e := range registry {
		union |= e.Needs
	}
	if union != 0 {
		if _, err := a.Require(ctx, union); err != nil {
			return fmt.Errorf("analysis: scanning: %w", err)
		}
	}
	for i, o := range RunEach(ctx, a) {
		id := registry[i].ID
		if o.Err != nil {
			return fmt.Errorf("analysis: experiment %s: %w", id, o.Err)
		}
		if err := o.Artifact.Render(w); err != nil {
			return fmt.Errorf("analysis: rendering %s: %w", id, err)
		}
	}
	return nil
}
