// Package telcolens reproduces the measurement study "Through the Telco
// Lens: A Countrywide Empirical Study of Cellular Handovers" (IMC 2024) on
// a fully synthetic, deterministic substrate: a countrywide mobile
// network, a GSMA-style device universe, a ~40M-UE-scale subscriber
// population (configurable), a core-network handover simulator, and the
// complete analysis pipeline that regenerates every table and figure of
// the paper's evaluation.
//
// The v2 analysis API is context-aware and parallel: traces are stored
// as (day, shard) partitions, experiments declare the scan state they
// need, and the engine fans a worker pool out over partitions with
// deterministic (bit-identical) results at any parallelism.
//
// A campaign always lives in a directory: Generate writes its trace
// through a file store, so the artifacts of the generating process and
// of any later Load of the same directory are the same bytes.
//
// Typical use:
//
//	store, err := telcolens.NewFileStore(dir)
//	// handle err
//	cfg := telcolens.DefaultConfig(42)
//	cfg.UEs, cfg.Days, cfg.Shards, cfg.Store = 5000, 14, 8, store
//	ds, err := telcolens.Generate(cfg)
//	// handle err; ds.SaveManifest(dir) lets telcolens.Load(dir) reopen it
//	a, err := telcolens.NewAnalyzer(ds, telcolens.WithParallelism(8))
//	// handle err
//	err = telcolens.RunExperiment(ctx, "fig8", a, os.Stdout)
//
// See DESIGN.md for the v2 store/collector architecture, the system
// inventory and the calibration substitutions.
package telcolens

import (
	"context"
	"fmt"
	"io"

	"telcolens/internal/analysis"
	"telcolens/internal/query"
	"telcolens/internal/report"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// Config parameterizes a synthetic measurement campaign.
type Config = simulate.Config

// Dataset is a generated campaign: world model plus captured traces.
type Dataset = simulate.Dataset

// Analyzer computes the paper's §4–§6 analyses over a dataset.
type Analyzer = analysis.Analyzer

// Experiment regenerates one paper table or figure.
type Experiment = analysis.Experiment

// Artifact is a rendered experiment result.
type Artifact = report.Artifact

// Store is a (day, shard)-partitioned handover trace store.
type Store = trace.Store

// Record is one captured handover event.
type Record = trace.Record

// Partition identifies one (day, shard) trace partition.
type Partition = trace.Partition

// ProgressEvent reports analysis scan progress (partitions merged).
type ProgressEvent = analysis.ProgressEvent

// ScanStats snapshots the trace-scan counters an Analyzer accumulated
// (partitions/records read, blocks decoded vs pruned, stored bytes);
// read it after RunExperiment/RunAll via Analyzer.ScanStats.
type ScanStats = analysis.ScanStats

// RefreshResult summarizes what one Analyzer.Refresh did: how many
// partitions were scanned into the warm state and whether the store
// changed in a way that forced a full rebuild.
type RefreshResult = analysis.RefreshResult

// DistrictProfile is the per-district drill-down summary.
type DistrictProfile = analysis.DistrictProfile

// LegacyDependence ranks districts by vertical-handover reliance.
type LegacyDependence = analysis.LegacyDependence

// QueryEngine executes ad-hoc record-slice queries (per-UE, per-TAC,
// time-window) over a store, pruning with the MANIFEST zone maps and
// each partition's index footer when it decodes; see the
// internal/query package and DESIGN.md §6.
type QueryEngine = query.Engine

// QueryParams is one ad-hoc query: a conjunction of optional
// predicates plus a row limit and an aggregate switch.
type QueryParams = query.Params

// QueryResult is a query's answer: matched rows in canonical order,
// the optional per-slice aggregate, and per-request prune metrics.
type QueryResult = query.Result

// QueryView pins the partition set of one manifest generation; queries
// against it are snapshot-isolated from concurrent appends.
type QueryView = query.View

// UESliceAggregate summarizes one subscriber's record slice (handover
// counts, outcome split, ping-pong bounces per standard window).
type UESliceAggregate = analysis.UESliceAggregate

// NewQueryEngine returns a query engine over s. Stores that read
// partition index footers (FileStore) get index pruning; everything
// else scans with identical results.
func NewQueryEngine(s Store) *QueryEngine { return query.New(s) }

// NewQueryView snapshots s's current partition set for querying.
func NewQueryView(s Store) (*QueryView, error) { return query.NewView(s) }

// Option configures an Analyzer. Options go to NewAnalyzer,
// ResumeAnalyzer or ResumeAnalyzerFile and hold for the Analyzer's life.
type Option = analysis.Option

// WithParallelism bounds how many trace partitions an analysis scan
// reads concurrently, and how many experiments RunAll renders at once
// (0 = GOMAXPROCS).
func WithParallelism(n int) Option { return analysis.WithParallelism(n) }

// WithProgress installs a callback invoked as analysis scan partitions
// complete.
func WithProgress(fn func(ProgressEvent)) Option { return analysis.WithProgress(fn) }

// WithWindow restricts the analysis to study days [fromDay, toDay]
// inclusive (-1 leaves a bound open). Scans become time-ranged: stores
// backed by partition files only decode blocks inside the window.
func WithWindow(fromDay, toDay int) Option { return analysis.WithWindow(fromDay, toDay) }

// DefaultConfig returns the calibrated laptop-scale configuration for the
// given seed (20k UEs, 28 days, 320 districts, 2.4k sites).
func DefaultConfig(seed uint64) Config { return simulate.DefaultConfig(seed) }

// Generate runs a full synthetic campaign into cfg.Store, which must be
// set (NewFileStore). cfg.Shards sets how many hash-partitioned shards
// it writes per study day and cfg.Workers how many simulation workers it
// runs.
func Generate(cfg Config) (*Dataset, error) { return simulate.Generate(cfg) }

// Load reopens a campaign directory produced by Generate with a file
// store and a saved manifest (see cmd/telcogen).
func Load(dir string) (*Dataset, error) { return simulate.Load(dir) }

// NewAnalyzer wraps a dataset for analysis.
func NewAnalyzer(ds *Dataset, opts ...Option) (*Analyzer, error) {
	return analysis.New(ds, opts...)
}

// ResumeAnalyzer reconstructs a warm analyzer from a checkpoint written
// by Analyzer.Checkpoint against the same campaign (whose study window
// may have grown since — telcogen -append). A subsequent
// Analyzer.Refresh scans only the partitions the checkpoint does not
// cover and merges them into the restored state, with artifacts
// byte-identical to a cold full scan.
func ResumeAnalyzer(ds *Dataset, r io.Reader, opts ...Option) (*Analyzer, error) {
	return analysis.ResumeAnalyzer(ds, r, opts...)
}

// SaveCheckpoint persists the analyzer's checkpoint to a file with the
// atomic-publish discipline (a crashed save leaves the previous
// checkpoint intact); see ResumeAnalyzerFile for the read side.
func SaveCheckpoint(path string, a *Analyzer) error {
	return analysis.SaveCheckpointFile(nil, path, a)
}

// ResumeAnalyzerFile restores an analyzer from a checkpoint file, or
// falls back to a cold analyzer when the file is missing, unreadable
// or fails its checksum — a checkpoint is an accelerator, never a
// correctness dependency. resumed reports whether the file was used.
func ResumeAnalyzerFile(path string, ds *Dataset, opts ...Option) (a *Analyzer, resumed bool, err error) {
	return analysis.ResumeAnalyzerFile(nil, path, ds, opts...)
}

// NewFileStore returns (creating if needed) a directory-backed store.
func NewFileStore(dir string) (Store, error) { return trace.NewFileStore(dir) }

// Experiments lists every registered experiment in paper order.
func Experiments() []Experiment { return analysis.Experiments() }

// ExperimentIDs lists experiment IDs alphabetically.
func ExperimentIDs() []string { return analysis.IDs() }

// RunExperiment executes one experiment by ID and renders it to w. Only
// the scan state the experiment declares is computed (and cached on the
// analyzer), so a single figure never pays for the whole pipeline.
func RunExperiment(ctx context.Context, id string, a *Analyzer, w io.Writer) error {
	e, ok := analysis.ByID(id)
	if !ok {
		return fmt.Errorf("telcolens: unknown experiment %q (known: %v)", id, analysis.IDs())
	}
	art, err := e.Run(ctx, a)
	if err != nil {
		return err
	}
	return art.Render(w)
}

// RunAll executes every experiment, rendering each artifact to w. All
// scan state is computed by one fused parallel pass over the trace.
func RunAll(ctx context.Context, a *Analyzer, w io.Writer) error {
	return analysis.RunAll(ctx, a, w)
}
