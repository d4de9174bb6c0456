// Package analysis implements the paper's measurement methodology (§4–§6):
// every table and figure of the evaluation is an Experiment that consumes
// the generated dataset and produces a report Artifact comparing measured
// values against the paper's published ones.
//
// The scan state is built from composable Collector units (see
// collectors.go). Each experiment declares the scan state it needs
// (Need bits); the Analyzer fuses exactly the missing collectors into
// one parallel pass over the trace store's (day, shard) partitions and
// caches the results, so running one experiment never pays for state
// only other experiments use.
package analysis

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"telcolens/internal/causes"
	"telcolens/internal/census"
	"telcolens/internal/ho"
	"telcolens/internal/mobility"
	"telcolens/internal/simulate"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// Need identifies one collector's worth of scan state. Experiments
// declare the union of what they consume; the engine computes each unit
// at most once per Analyzer.
type Need uint32

// The scan-state units an experiment can require.
const (
	// NeedTypes: totals per HO type, device type, vendor and day.
	NeedTypes Need = 1 << iota
	// NeedDurations: sampled signaling-time distributions.
	NeedDurations
	// NeedCauses: HOF cause breakdowns (type, device, area, maker).
	NeedCauses
	// NeedTemporal: 30-minute HO bins and hourly HOF/active-sector data.
	NeedTemporal
	// NeedDistricts: per-district HO/HOF/type counts.
	NeedDistricts
	// NeedUEDay: per-UE totals and per-UE-day mobility metrics.
	NeedUEDay
	// NeedSectorDay: the §6.3 sector-day regression dataset.
	NeedSectorDay
	// NeedPingPong: the §7 ping-pong automata over
	// StandardPingPongWindows.
	NeedPingPong

	needSentinel
)

// NeedAll requires every scan-state unit.
const NeedAll = needSentinel - 1

// ProgressEvent reports scan progress: Done of Total trace partitions
// have been merged.
type ProgressEvent struct {
	Done  int
	Total int
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithParallelism bounds how many trace partitions are scanned
// concurrently; 0 (the default) means GOMAXPROCS.
func WithParallelism(n int) Option {
	return func(a *Analyzer) { a.parallelism = n }
}

// WithProgress installs a callback invoked as scan partitions complete.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(a *Analyzer) { a.progress = fn }
}

// WithWindow restricts the analysis to study days [fromDay, toDay]
// inclusive; -1 leaves the corresponding bound open. Scans become
// time-ranged (trace.ScanOptions.Range), so file stores only decode the
// blocks inside the window, and window-aware experiments average over
// window days only.
func WithWindow(fromDay, toDay int) Option {
	return func(a *Analyzer) {
		a.winFrom = fromDay
		a.winTo = toDay
	}
}

// Analyzer wraps a generated dataset with the cached derived views the
// experiments share. Views are built on demand by parallel streaming
// passes over the trace; each Need unit is computed at most once — and
// kept as a live collector, so new partitions fold in incrementally
// (Refresh) and the whole analysis state can round-trip through a
// checkpoint (Checkpoint / ResumeAnalyzer).
type Analyzer struct {
	DS *simulate.Dataset

	// The options are set in New (and, for the window, by a checkpoint
	// restore before the Analyzer is returned) and never change after,
	// so they are read without mu.
	parallelism int
	progress    func(ProgressEvent)
	// winFrom/winTo bound the analysis window in study days (inclusive);
	// -1 leaves a bound open.
	winFrom int
	winTo   int
	// frozen marks a generation (Generation): its state, coverage and
	// counters are fixed at construction, so it reads them without mu,
	// and it never scans.
	frozen bool

	mu  sync.Mutex
	env *scanEnv
	// cols holds the live collector per computed Need unit; the bits of
	// have mirror its keys. Collectors accumulate across scans.
	cols map[Need]collector
	have Need
	// state is the finalized view the experiments read, rebuilt from the
	// collectors whenever stateDirty (a scan, restore or day growth
	// happened).
	state      *scanState
	stateDirty bool
	// covered lists the partitions folded into every computed collector,
	// in canonical order; coveredGen is the store manifest generation
	// that produced it (0 when the store has no manifest).
	covered    []trace.PartitionInfo
	coveredGen uint64
	stats      ScanStats

	// rowCache memoizes RegressionRows per filter. Eight experiment
	// bodies share four distinct filters, and they run concurrently under
	// RunAll's worker pool — hence the dedicated mutex. rowCacheState is
	// the finalized state the entries were derived from; finalize
	// publishes a fresh *scanState, so a pointer comparison is the
	// invalidation.
	rowCacheMu    sync.Mutex
	rowCacheState *scanState
	rowCache      map[RowFilter][]SectorDayRow
}

// ScanStats snapshots the trace-scan observability counters an Analyzer
// has accumulated across its Require passes: partitions and records
// read, blocks decoded vs pruned by time-range descriptors, and the
// stored bytes consumed by decoded data.
type ScanStats struct {
	Scans         int64
	Partitions    int64
	Records       int64
	BlocksRead    int64
	BlocksSkipped int64
	BytesRead     int64
	// ScanNanos/FinalizeNanos split the wall time between the streaming
	// trace passes and the post-scan collector finalization, so the
	// post-scan constant stays visible in bench artifacts (telcoreport
	// -finalizeprofile prints the split).
	ScanNanos     int64
	FinalizeNanos int64
}

// ProfileSummary renders the scan-vs-finalize wall-time split that
// telcoreport -finalizeprofile prints.
func (s ScanStats) ProfileSummary() string {
	return fmt.Sprintf("profile: scan %.3fs, finalize %.3fs",
		float64(s.ScanNanos)/1e9, float64(s.FinalizeNanos)/1e9)
}

// ScanStats returns the counters accumulated so far.
func (a *Analyzer) ScanStats() ScanStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Summary renders the counters the way the CLI -v flags print them.
func (s ScanStats) Summary() string {
	return fmt.Sprintf("%d scan(s), %d partitions, %d records, %d blocks decoded, %d blocks pruned, %.2f MB read",
		s.Scans, s.Partitions, s.Records, s.BlocksRead, s.BlocksSkipped,
		float64(s.BytesRead)/1e6)
}

// New returns an Analyzer over the dataset.
func New(ds *simulate.Dataset, opts ...Option) (*Analyzer, error) {
	if ds == nil {
		return nil, fmt.Errorf("analysis: nil dataset")
	}
	a := &Analyzer{DS: ds, winFrom: -1, winTo: -1}
	for _, o := range opts {
		o(a)
	}
	if err := checkWindow(a.winFrom, a.winTo); err != nil {
		return nil, err
	}
	return a, nil
}

// checkWindow rejects an empty analysis window.
func checkWindow(winFrom, winTo int) error {
	if winFrom >= 0 && winTo >= 0 && winFrom > winTo {
		return fmt.Errorf("analysis: window [%d, %d] is empty", winFrom, winTo)
	}
	return nil
}

// resetScanStateLocked drops every computed collector and its coverage;
// the next Require recomputes from the store's current partitions.
func (a *Analyzer) resetScanStateLocked() {
	a.cols = nil
	a.have = 0
	a.state = nil
	a.stateDirty = false
	a.covered = nil
	a.coveredGen = 0
}

// clampWindow resolves a (-1 = open) window bound pair against the study
// length, returning the inclusive day span. Shared by the scan and
// windowSpan so the scanned range and the span the experiments iterate
// can never diverge.
func clampWindow(winFrom, winTo, days int) (lo, hi int) {
	lo, hi = 0, days-1
	if winFrom > 0 {
		lo = winFrom
	}
	if winTo >= 0 && winTo < hi {
		hi = winTo
	}
	return lo, hi
}

// windowSpan clamps the configured window to [0, days-1] and returns the
// inclusive day span experiments should iterate.
func (a *Analyzer) windowSpan(days int) (lo, hi int) {
	return clampWindow(a.winFrom, a.winTo, days)
}

// windowDays returns how many study days the configured window spans
// (the whole study when no window is set): the divisor of every
// per-day average.
func (a *Analyzer) windowDays() int {
	lo, hi := a.windowSpan(a.DS.Config.Days)
	return hi - lo + 1
}

// UEDayMetric is one UE's mobility/performance summary for one day
// (§3.3): distinct sectors successfully communicated with, radius of
// gyration over time-weighted sector visits, and HO/HOF counts.
type UEDayMetric struct {
	UE         trace.UEID
	Day        int32
	Sectors    int32
	HOs        int32
	Fails      int32
	GyrationKm float32
	NightSite  int32 // site of the first event in [00:00,08:00), -1 if none
}

// SectorDayRow is one observation of the §6.3 regression dataset: the
// daily HOF rate of a source sector for one handover type, with the
// Table 3 covariates resolved.
type SectorDayRow struct {
	Sector      topology.SectorID
	Day         int16
	Type        ho.Type
	HOs         int32
	Fails       int32
	TotalDayHOs int32 // all HOs of the sector that day (any type)
	Region      census.Region
	Area        census.AreaType
	Vendor      topology.Vendor
	DistrictPop int32
}

// HOFRatePct returns the row's failure rate in percent.
func (r *SectorDayRow) HOFRatePct() float64 {
	if r.HOs == 0 {
		return 0
	}
	return 100 * float64(r.Fails) / float64(r.HOs)
}

// causeIdx maps a cause code to a compact index: 0 = long tail ("other"),
// 1..8 = the main causes.
func causeIdx(c causes.Code) int {
	if causes.IsMain(c) {
		return int(c)
	}
	return 0
}

const nCauseIdx = 9

// scanState is the shared view the collectors publish into. Fields are
// only valid once the corresponding Need unit has been computed.
type scanState struct {
	days      int
	nUEs      int
	nSectors  int
	districts int

	// NeedTypes.
	totalHOs        int64
	totalFails      int64
	typeCounts      [ho.NumTypes]int64
	typeDevCounts   [ho.NumTypes][3]int64
	perDayTypeDev   [][ho.NumTypes][3]int64
	typeFails       [ho.NumTypes]int64
	perDayTypeFails [][ho.NumTypes]int64
	vendorByType    [ho.NumTypes][4]int64 // Fig 17 bottom

	// NeedDurations: exact signaling-time distributions per HO type
	// (successes) and per cause index (failures).
	durSuccess [ho.NumTypes]*durDist
	durCause   [nCauseIdx]*durDist

	// NeedCauses: HOF causes per HO type, totals and per day, plus the
	// Fig 15 breakdowns.
	causeType       [ho.NumTypes][nCauseIdx]int64
	perDayCauseType [][ho.NumTypes][nCauseIdx]int64
	causeByDev      [3][nCauseIdx]int64
	causeByArea     [2][nCauseIdx]int64
	causeByMfr      map[string]*[2][nCauseIdx]int64 // top-5 smartphone makers × area

	// NeedTemporal (Fig 7, Fig 12).
	binHOs     [][mobility.BinsPerDay][2]int64 // per day, per 30-min bin, per area
	binActive  [][mobility.BinsPerDay][2]int32 // distinct active sectors
	hourHOFs   [][24][2]int64
	hourActive [][24][2]int32

	// NeedDistricts.
	districtHOs   []int64
	districtFails []int64
	districtType  [][ho.NumTypes]int64

	// NeedUEDay: per-UE window totals (Fig 11, Fig 13) and per-UE-day
	// metrics, canonically ordered by (day, UE).
	ueHOs   []int32
	ueFails []int32
	ueDay   []UEDayMetric

	// NeedSectorDay: regression rows, canonically ordered by
	// (day, sector, type).
	sectorDay []SectorDayRow

	// NeedPingPong: one entry per StandardPingPongWindows window.
	pingPong []*PingPongStats
}

// topManufacturers tracked for Fig 11/15 stacked views. The array index
// is the dense manufacturer id the causes collector accumulates under
// (see tacInfo.mfr).
const nTopMfr = 5

var topManufacturers = [nTopMfr]string{"Apple", "Samsung", "Motorola", "Google", "Huawei"}

// collectorFor builds the collector computing one Need unit.
func collectorFor(need Need, env *scanEnv) collector {
	switch need {
	case NeedTypes:
		return newTypesCollector(env)
	case NeedDurations:
		return new(durationsCollector)
	case NeedCauses:
		return newCausesCollector(env)
	case NeedTemporal:
		return newTemporalCollector(env)
	case NeedDistricts:
		return newDistrictsCollector(env)
	case NeedUEDay:
		return newUEDayCollector(env)
	case NeedSectorDay:
		return newSectorDayCollector(env)
	case NeedPingPong:
		return newPingPongCollector(env)
	}
	panic(fmt.Sprintf("analysis: unknown need %b", need))
}

// syncEnvLocked builds the shared env on first use and follows the
// dataset's landed-day count. A study window that grew in place
// (simulate.GenerateDays, Dataset.Reload) only advances env.days: the
// live collectors grow their day-indexed state as the new days merge.
// A dataset whose fixed dimensions changed (different world), or whose
// day count shrank, drops all cached state instead.
func (a *Analyzer) syncEnvLocked() {
	if a.env == nil {
		a.env = newScanEnv(a.DS)
		return
	}
	days := a.DS.Config.Days
	if days == a.env.days {
		return
	}
	if days < a.env.days || a.DS.Population.Len() != a.env.nUEs ||
		len(a.DS.Network.Sectors) != a.env.nSectors || len(a.DS.Country.Districts) != a.env.nDistricts {
		a.resetScanStateLocked()
		a.env = newScanEnv(a.DS)
		return
	}
	a.env.days = days
	a.stateDirty = true
}

// coverageDelta reports whether cur extends old append-only: old must be
// a prefix of cur partition-for-partition (same fingerprints and record
// counts), with every extra partition strictly after it in canonical
// order — exactly the shape a growing campaign produces. The returned
// delta is the extra partitions; ok=false means the store changed some
// other way and the consumer must rebuild from scratch.
func coverageDelta(old, cur []trace.PartitionInfo) (delta []trace.PartitionInfo, ok bool) {
	if len(cur) < len(old) {
		return nil, false
	}
	for i := range old {
		o, c := &old[i], &cur[i]
		if o.Partition() != c.Partition() || o.Fingerprint != c.Fingerprint || o.Records != c.Records {
			return nil, false
		}
	}
	return cur[len(old):], true
}

// completeDays keeps, from a canonical-order coverage list, the
// partitions of every whole day: a day counts as complete when its
// partitions are exactly shards 0..n-1 with n matching the campaign's
// shard count (1 for unsharded stores). The flush-based collectors
// (temporal, UE-day, sector-day) finalize each day's distinct counts and
// row groups exactly once, so a scan must never consume half a day and
// pick the rest up later — a store caught mid-append (telcoserve polling
// while telcogen lands a sharded day) leaves its last day uncovered until
// it finishes. A day missing a shard elsewhere (a scrub quarantined it)
// is skipped, and the days after it are still covered.
func completeDays(infos []trace.PartitionInfo, shards int) []trace.PartitionInfo {
	if shards < 1 {
		shards = 1
	}
	out := infos[:0:0]
	for i := 0; i < len(infos); {
		day := infos[i].Day
		j := i
		ok := true
		for ; j < len(infos) && infos[j].Day == day; j++ {
			if infos[j].Shard != j-i {
				ok = false
			}
		}
		if ok && j-i == shards {
			out = append(out, infos[i:j]...)
		}
		i = j
	}
	return out
}

// currentCoverageLocked resolves the store's partitions, filtered to
// whole days inside the configured study window, plus the manifest
// generation that produced the view. Partitions beyond the window
// (days landed by an appender whose campaign manifest has not been
// re-saved yet, or left by a crashed append) are simply not covered
// yet — the analysis stays consistent with the campaign's declared
// span instead of erroring, and a later Refresh picks the days up once
// the campaign manifest describes them.
func (a *Analyzer) currentCoverageLocked() ([]trace.PartitionInfo, uint64, error) {
	m, err := a.DS.Config.Store.Manifest()
	if err != nil {
		return nil, 0, err
	}
	infos, days := m.Partitions, a.DS.Config.Days
	for i := range infos {
		if infos[i].Day >= days {
			infos = infos[:i]
			break
		}
	}
	return completeDays(infos, a.DS.Config.Shards), m.Gen, nil
}

// partitionsOf projects a coverage list to bare partition keys.
func partitionsOf(infos []trace.PartitionInfo) []trace.Partition {
	parts := make([]trace.Partition, len(infos))
	for i := range infos {
		parts[i] = infos[i].Partition()
	}
	return parts
}

// checkPartitionDays validates partition days against the configured
// study window before a scan (collectors index per-day arrays with them).
func (a *Analyzer) checkPartitionDaysLocked(infos []trace.PartitionInfo) error {
	for i := range infos {
		if d := infos[i].Day; d < 0 || d >= a.env.days {
			return fmt.Errorf("analysis: partition day %d beyond configured %d days", d, a.env.days)
		}
	}
	return nil
}

// scanIntoLocked runs one fused pass over the given partitions, feeding
// the given collectors, and folds the metrics into the analyzer stats.
func (a *Analyzer) scanIntoLocked(ctx context.Context, cols []collector, parts []trace.Partition) error {
	tcols := make([]trace.Collector, len(cols))
	// Project the union of the fused collectors' declared columns, so a
	// file store only decodes what this pass actually reads (e.g. a
	// temporal-only scan skips the UE, device and cause columns).
	var proj trace.ColumnSet
	for i, c := range cols {
		tcols[i] = c
		proj |= c.columns()
	}
	var metrics trace.ScanMetrics
	opts := trace.ScanOptions{
		Parallelism: a.parallelism,
		Projection:  proj | trace.ColTimestamp,
		Metrics:     &metrics,
		Partitions:  parts,
	}
	if a.progress != nil {
		progress := a.progress
		opts.Progress = func(done, total int) { progress(ProgressEvent{Done: done, Total: total}) }
	}
	if a.winFrom >= 0 || a.winTo >= 0 {
		// Time-ranged scan: file partitions prune whole blocks outside
		// the window; everything else filters record by record, so the
		// observed sequence is codec-independent. The window is checked
		// against the study length here, as the study may have grown
		// since New.
		if a.winFrom >= a.env.days {
			return fmt.Errorf("analysis: window starts at day %d but the study has %d days", a.winFrom, a.env.days)
		}
		// A zero-day study clamps to an empty span; it has nothing to
		// range over, and Scan rejects an inverted range.
		if lo, hi := clampWindow(a.winFrom, a.winTo, a.env.days); lo <= hi {
			tr := trace.DayRange(lo, hi)
			opts.Range = &tr
		}
	}
	scanStart := time.Now()
	if err := trace.Scan(ctx, a.DS.Config.Store, opts, tcols...); err != nil {
		return err
	}
	a.stats.ScanNanos += time.Since(scanStart).Nanoseconds()
	a.stats.Scans++
	a.stats.Partitions += metrics.Partitions.Load()
	a.stats.Records += metrics.Records.Load()
	a.stats.BlocksRead += metrics.BlocksRead.Load()
	a.stats.BlocksSkipped += metrics.BlocksSkipped.Load()
	a.stats.BytesRead += metrics.BytesRead.Load()
	return nil
}

// finalizeLocked publishes a fresh scanState from every live collector.
// Each collector's finalize writes a disjoint set of scanState fields, so
// the units run concurrently; the publish (a.state = st) happens after
// every worker has returned.
func (a *Analyzer) finalizeLocked() error {
	start := time.Now()
	st := &scanState{
		days:      a.env.days,
		nUEs:      a.env.nUEs,
		nSectors:  a.env.nSectors,
		districts: a.env.nDistricts,
	}
	var live []collector
	for need := NeedTypes; need < needSentinel; need <<= 1 {
		if col, ok := a.cols[need]; ok {
			live = append(live, col)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(live))
	for i, col := range live {
		wg.Add(1)
		go func(i int, col collector) {
			defer wg.Done()
			errs[i] = col.finalize(st)
		}(i, col)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	a.state = st
	a.stateDirty = false
	a.stats.FinalizeNanos += time.Since(start).Nanoseconds()
	return nil
}

// Require ensures every requested scan-state unit is computed, fusing all
// missing collectors into a single parallel pass over the trace store. It
// returns the shared view. Concurrent callers serialize.
//
// The first scan pins the analyzer's partition coverage to the store's
// partitions at that moment; later Require calls compute missing units
// over the same coverage, so all cached views stay mutually consistent
// even while the store grows. Refresh advances the coverage to the
// store's current state.
func (a *Analyzer) Require(ctx context.Context, need Need) (*scanState, error) {
	if a.frozen {
		if missing := need &^ a.have; missing != 0 {
			return nil, fmt.Errorf("analysis: the generation holds no scan state %b", missing)
		}
		return a.state, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.requireLocked(ctx, need)
}

func (a *Analyzer) requireLocked(ctx context.Context, need Need) (*scanState, error) {
	a.syncEnvLocked()
	missing := need &^ a.have
	if missing == 0 {
		if a.state == nil || a.stateDirty {
			if err := a.finalizeLocked(); err != nil {
				return nil, err
			}
		}
		return a.state, nil
	}

	if a.have == 0 && a.covered == nil {
		infos, gen, err := a.currentCoverageLocked()
		if err != nil {
			return nil, err
		}
		a.covered = infos
		a.coveredGen = gen
	}
	if err := a.checkPartitionDaysLocked(a.covered); err != nil {
		return nil, err
	}

	var cols []collector
	var colNeeds []Need
	for n := NeedTypes; n < needSentinel; n <<= 1 {
		if missing&n != 0 {
			cols = append(cols, collectorFor(n, a.env))
			colNeeds = append(colNeeds, n)
		}
	}
	if err := a.scanIntoLocked(ctx, cols, partitionsOf(a.covered)); err != nil {
		return nil, err
	}
	if a.cols == nil {
		a.cols = make(map[Need]collector)
	}
	for i, c := range cols {
		a.cols[colNeeds[i]] = c
	}
	a.have |= missing
	a.stateDirty = true
	if err := a.finalizeLocked(); err != nil {
		return nil, err
	}
	return a.state, nil
}

// Generation returns a read-only analyzer over the finalized state: the
// experiments run on it as on a, and its Require returns that state,
// failing for a unit it does not hold and never scanning. It keeps a copy
// of the dataset header (config, day statistics, world pointers) and of
// a's coverage and counters, and a published state shares nothing a later
// merge writes (collector.finalize), so nothing a later Refresh, Scan,
// Checkpoint or Dataset.Reload of a writes reaches it: experiments may run
// on a generation while a moves on. A state a has not finalized since the
// study grew is finalized first; that never scans.
func (a *Analyzer) Generation() (*Analyzer, error) {
	if a.frozen {
		return a, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.syncEnvLocked()
	if a.state == nil || a.stateDirty {
		if err := a.finalizeLocked(); err != nil {
			return nil, err
		}
	}
	ds := *a.DS
	return &Analyzer{
		DS:          &ds,
		parallelism: a.parallelism,
		winFrom:     a.winFrom,
		winTo:       a.winTo,
		frozen:      true,
		have:        a.have,
		state:       a.state,
		covered:     slices.Clip(a.covered),
		coveredGen:  a.coveredGen,
		stats:       a.stats,
	}, nil
}

// Scan builds every cached view. Experiments that know their needs
// should let the registry Require them instead.
func (a *Analyzer) Scan(ctx context.Context) (*scanState, error) {
	return a.Require(ctx, NeedAll)
}
