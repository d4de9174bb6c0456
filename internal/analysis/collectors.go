package analysis

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"telcolens/internal/census"
	"telcolens/internal/devices"
	"telcolens/internal/geo"
	"telcolens/internal/ho"
	"telcolens/internal/mobility"
	"telcolens/internal/simulate"
	"telcolens/internal/stats"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// The scan engine is a set of independent Collector units, all fed by
// one pass over the trace. Each unit implements the quartet
//
//	NewShardState(day, shard)      — fresh accumulator for one partition
//	ObserveColumns(day, *ColumnBatch) — batch accumulation (shard-local)
//	MergeShard(state)              — fold, in canonical (day, shard) order
//	finalize(*scanState)           — publish the merged view
//
// so an experiment pays only for the state it declares (Need bits) and
// the scan parallelizes over trace partitions. MergeShard runs one
// partition at a time, on whichever worker folds, so work that depends
// on a single partition belongs in the state's FinishPartition
// (trace.PartitionFinisher), which runs on the worker that scanned it. Every unit is written so
// its merged output is bit-identical whether the store holds one shard
// per day or many, and whatever the scan parallelism:
//
//   - counters are exact integer sums (order-free);
//   - duration distributions are exact counts per stored duration
//     code (order-free sums);
//   - distinct-sector counts use per-day bitsets OR-merged across
//     shards (set semantics, order-free);
//   - row sets (UE-day metrics, sector-day observations) are emitted in
//     a canonical sort order, which also makes downstream float
//     accumulation (OLS, ANOVA) reproducible run to run.

// collector is a trace.Collector that can publish its merged result into
// the shared scan view once every partition has been folded. Collectors
// are long-lived accumulators: the analyzer keeps them between scans,
// folds delta partitions into them on Refresh (their day-indexed state
// grows in place as days land), and encodes them into checkpoints, so
// finalize must be re-runnable (it publishes the current merged view
// without consuming state). The view it publishes shares nothing a
// later merge writes: state a merge updates in place is copied, and an
// append-only row set is resliced to its length, so a published state
// never changes and a generation (Analyzer.Generation) can keep it while
// the collectors merge on.
type collector interface {
	trace.Collector
	finalize(s *scanState) error
	// columns declares exactly which record fields the collector's
	// ObserveColumns reads (timestamps are always available). Scans project the
	// union of the fused collectors' columns, so file stores skip
	// decoding everything else; an understated set would read
	// unspecified field values.
	columns() trace.ColumnSet
	// encode appends the collector's persisted form: its own merged
	// fields, deterministically (the same state, the same bytes). Only
	// call it at a quiescent point — after finalize, never mid-scan.
	encode(e *enc)
	// restore fills a fresh collector (from collectorFor) from encode's
	// bytes, checking them against the dataset.
	restore(d *dec) error
}

// scanEnv is the per-dataset context shared by all collectors: the
// study's landed-day count, which grows in place as days land, plus
// dimension sizes and flat metadata tables that are fixed for a given
// world, so the per-record hot loops resolve everything with one slice
// index — per-sector area/vendor/district/site/location and per-TAC
// device metadata (replacing the Devices.ByTAC map probe).
type scanEnv struct {
	ds         *simulate.Dataset
	days       int
	nUEs       int
	nSectors   int
	nDistricts int
	sectors    []sectorMeta
	// tacInfo is the dense TAC → device metadata table, indexed by
	// TAC - tacBase; nil when the catalog's TAC space is too sparse to
	// tabulate (lookupTAC then falls back to the catalog map).
	tacBase devices.TAC
	tacInfo []tacInfo
}

type sectorMeta struct {
	loc geo.Point
	// latRad/lonRad/cosLat are geo.PrecomputeTrig(loc), tabulated once so
	// the gyration merge loop does no per-visit trigonometry (the trig
	// gyration path is bit-identical to the reference; see geo tests).
	latRad   float64
	lonRad   float64
	cosLat   float64
	district int32
	site     int32
	areaIdx  uint8 // 0 rural, 1 urban
	vendor   uint8
}

// tacInfo is one dense TAC-table entry: the device type plus the index
// into topManufacturers (-1 when untracked or not a smartphone),
// resolved once per dataset.
type tacInfo struct {
	known   bool
	devType uint8
	mfr     int8
}

// maxTACSpread bounds the dense table size; generated catalogs are
// contiguous, so this only guards synthetic pathological inputs.
const maxTACSpread = 1 << 22

func newScanEnv(ds *simulate.Dataset) *scanEnv {
	env := &scanEnv{
		ds:         ds,
		days:       ds.Config.Days,
		nUEs:       ds.Population.Len(),
		nSectors:   len(ds.Network.Sectors),
		nDistricts: len(ds.Country.Districts),
		sectors:    make([]sectorMeta, len(ds.Network.Sectors)),
	}
	for i := range env.sectors {
		sec := ds.Network.Sector(topology.SectorID(i))
		m := &env.sectors[i]
		m.loc = sec.Loc
		m.latRad, m.lonRad, m.cosLat = geo.PrecomputeTrig(sec.Loc)
		m.district = int32(sec.DistrictID)
		m.site = int32(sec.Site)
		m.vendor = uint8(sec.Vendor)
		if sec.Area == census.Urban {
			m.areaIdx = 1
		}
	}
	if models := ds.Devices.Models; len(models) > 0 {
		minT, maxT := models[0].TAC, models[0].TAC
		for i := range models {
			if t := models[i].TAC; t < minT {
				minT = t
			} else if t > maxT {
				maxT = t
			}
		}
		if spread := uint64(maxT) - uint64(minT); spread < maxTACSpread {
			env.tacBase = minT
			env.tacInfo = make([]tacInfo, spread+1)
			for i := range models {
				env.tacInfo[models[i].TAC-minT] = tacInfoOf(&models[i])
			}
		}
	}
	return env
}

func tacInfoOf(m *devices.Model) tacInfo {
	ti := tacInfo{known: true, devType: uint8(m.Type), mfr: -1}
	if m.Type == devices.Smartphone {
		for i, name := range topManufacturers {
			if name == m.Manufacturer {
				ti.mfr = int8(i)
			}
		}
	}
	return ti
}

// lookupTAC resolves a record's TAC to its device metadata: one slice
// index on the dense fast path, the catalog map only when the dense
// table could not be built. The second return is false for unknown TACs.
func (env *scanEnv) lookupTAC(t devices.TAC) (tacInfo, bool) {
	if idx := uint64(t) - uint64(env.tacBase); idx < uint64(len(env.tacInfo)) {
		ti := env.tacInfo[idx]
		return ti, ti.known
	}
	return env.lookupTACSlow(t)
}

func (env *scanEnv) lookupTACSlow(t devices.TAC) (tacInfo, bool) {
	if env.tacInfo != nil {
		// The dense table covers the whole catalog; out of range = unknown.
		return tacInfo{}, false
	}
	m := env.ds.Devices.ByTAC(t)
	if m == nil {
		return tacInfo{}, false
	}
	return tacInfoOf(m), true
}

// dayStart returns trace.DayStart(day).UnixMilli(). StudyStart is UTC,
// so every study day is exactly 86 400 000 ms long.
func dayStart(day int) int64 {
	return trace.StudyStart.UnixMilli() + int64(day)*86_400_000
}

// growDays extends a per-day array with zeroed days up to n. The
// collectors' day-indexed state grows on demand as days land: MergeShard
// grows it to the partition's day, finalize and encode to the study's.
func growDays[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// hoTypeByRAT maps a packed RAT byte's target nibble to its handover
// type, hoisting the ho.Classify switch out of the batch loops. Index
// with rats&0x0f.
var hoTypeByRAT = func() (t [16]ho.Type) {
	for r := range t {
		t[r] = ho.Classify(topology.RAT(r))
	}
	return
}()

// mix64 is the splitmix64 finalizer: a cheap bijective 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// --- exact duration distributions ---------------------------------------

// durHist is the exact distribution of one class of stored durations: a
// count per codec duration code (trace.DurationCode), whose order is the
// values' order. The counts live in pages of 256 codes, allocated when
// the class first holds one of their codes, so a class costs what its
// codes span, at most 65 536 counts however many values it holds.
// Merging is addition: any split, grouping or order of the same values
// gives the same histogram.
type durHist struct {
	pages [256]*[256]int64
}

// count returns the slot of code, allocating its page on first use.
func (h *durHist) count(code uint16) *int64 {
	p := h.pages[code>>8]
	if p == nil {
		p = new([256]int64)
		h.pages[code>>8] = p
	}
	return &p[code&0xff]
}

// add counts one value per code.
func (h *durHist) add(codes []uint16) {
	for _, c := range codes {
		*h.count(c)++
	}
}

// each calls f for every code the histogram holds, in ascending order.
func (h *durHist) each(f func(code uint16, n int64)) {
	for hi, p := range h.pages {
		if p == nil {
			continue
		}
		for lo, n := range p {
			if n != 0 {
				f(uint16(hi<<8|lo), n)
			}
		}
	}
}

// dist publishes the histogram as a durDist.
func (h *durHist) dist() *durDist {
	d := &durDist{}
	var cum int64
	h.each(func(code uint16, n int64) {
		cum += n
		d.codes = append(d.codes, code)
		d.cum = append(d.cum, cum)
	})
	return d
}

// durDist is a duration distribution as a published state holds it: the
// distinct codes in ascending order and, for each, how many values are
// at most its value. finalize builds it afresh, so no later merge
// reaches it and a generation may share it.
type durDist struct {
	codes []uint16
	cum   []int64
}

// N returns the number of values.
func (d *durDist) N() int64 {
	if len(d.cum) == 0 {
		return 0
	}
	return d.cum[len(d.cum)-1]
}

// kth returns the k-th smallest value, k counted from 0.
func (d *durDist) kth(k int) float64 {
	i, _ := slices.BinarySearch(d.cum, int64(k)+1)
	return float64(trace.DurationValue(d.codes[i]))
}

// Quantiles returns the qs quantiles of the values, each what
// stats.QuantileSorted returns over them in ascending order.
func (d *durDist) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = stats.QuantileRanked(int(d.N()), d.kth, q)
	}
	return out
}

// ECDF returns the values' ECDF, or stats.ErrEmpty when there are none.
func (d *durDist) ECDF() (*stats.ECDF, error) {
	return stats.NewECDFRanked(int(d.N()), d.kth)
}

// --- bitsets for distinct-sector counting ------------------------------

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// orDrain ORs src into *dst, allocating *dst on first use, and zeroes
// src so that its owner can be reused.
func orDrain(dst *bitset, src bitset, n int) {
	if *dst == nil {
		*dst = newBitset(n)
	}
	d := *dst
	for i, w := range src {
		d[i] |= w
		src[i] = 0
	}
}

// drain returns the number of set bits and zeroes the set.
func (b bitset) drain() int {
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(w)
		b[i] = 0
	}
	return n
}

// shardFree recycles one collector's shard states within a scan:
// NewShardState (on any worker) takes back a state MergeShard has folded
// and zeroed instead of allocating one, so a scan allocates about one
// state per partition in flight, and the buffers those states grew are
// reused. finalize drops the states, so an analyzer kept between scans
// holds none. (A sync.Pool would be emptied by every GC mid-scan.)
type shardFree[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get returns a recycled state, or nil when there is none.
func (f *shardFree[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.free)
	if n == 0 {
		return nil
	}
	s := f.free[n-1]
	f.free = f.free[:n-1]
	return s
}

func (f *shardFree[T]) put(s *T) {
	f.mu.Lock()
	f.free = append(f.free, s)
	f.mu.Unlock()
}

func (f *shardFree[T]) drop() {
	f.mu.Lock()
	f.free = nil
	f.mu.Unlock()
}

// checkDay validates a merged partition's day against the configured
// window (collectors index per-day arrays with it).
func checkDay(env *scanEnv, day int) error {
	if day < 0 || day >= env.days {
		return fmt.Errorf("analysis: partition day %d beyond configured %d days", day, env.days)
	}
	return nil
}

// --- types collector: totals per HO type / device type / vendor --------

type typesCollector struct {
	env *scanEnv

	totalHOs      int64
	totalFails    int64
	typeCounts    [ho.NumTypes]int64
	typeDevCounts [ho.NumTypes][3]int64
	perDayTypeDev [][ho.NumTypes][3]int64
	typeFails     [ho.NumTypes]int64
	perDayFails   [][ho.NumTypes]int64
	vendorByType  [ho.NumTypes][4]int64
}

func newTypesCollector(env *scanEnv) *typesCollector {
	return &typesCollector{env: env}
}

// grow extends the per-day arrays to n days.
func (c *typesCollector) grow(n int) {
	c.perDayTypeDev = growDays(c.perDayTypeDev, n)
	c.perDayFails = growDays(c.perDayFails, n)
}

type typesShard struct {
	env        *scanEnv
	day        int
	hos, fails int64
	counts     [ho.NumTypes]int64
	devCounts  [ho.NumTypes][3]int64
	dayTypeDev [ho.NumTypes][3]int64
	typeFails  [ho.NumTypes]int64
	dayFails   [ho.NumTypes]int64
	vendor     [ho.NumTypes][4]int64
}

func (c *typesCollector) NewShardState(day, shard int) trace.ShardState {
	return &typesShard{env: c.env, day: day}
}

// ObserveColumns hoists the record-count bump out of the loop; every
// per-record lookup is a slice index.
func (s *typesShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	env := s.env
	n := cb.Len()
	s.hos += int64(n)
	for i := 0; i < n; i++ {
		ti, ok := env.lookupTAC(cb.TACs[i])
		if !ok {
			return fmt.Errorf("analysis: unknown TAC %d", cb.TACs[i])
		}
		t := hoTypeByRAT[cb.RATs[i]&0x0f]
		s.counts[t]++
		s.devCounts[t][ti.devType]++
		s.dayTypeDev[t][ti.devType]++
		s.vendor[t][env.sectors[cb.Sources[i]].vendor]++
		if cb.Results[i] == trace.Failure {
			s.fails++
			s.typeFails[t]++
			s.dayFails[t]++
		}
	}
	return nil
}

// typesShard reads the device (TAC), source sector, and the HO-type and
// result bits of the outcome tail.
func (c *typesCollector) columns() trace.ColumnSet {
	return trace.ColTAC | trace.ColSectors | trace.ColOutcome
}

func (c *typesCollector) MergeShard(st trace.ShardState) error {
	s := st.(*typesShard)
	if err := checkDay(c.env, s.day); err != nil {
		return err
	}
	c.grow(s.day + 1)
	c.totalHOs += s.hos
	c.totalFails += s.fails
	for t := 0; t < int(ho.NumTypes); t++ {
		c.typeCounts[t] += s.counts[t]
		c.typeFails[t] += s.typeFails[t]
		c.perDayFails[s.day][t] += s.dayFails[t]
		for d := 0; d < 3; d++ {
			c.typeDevCounts[t][d] += s.devCounts[t][d]
			c.perDayTypeDev[s.day][t][d] += s.dayTypeDev[t][d]
		}
		for v := 0; v < 4; v++ {
			c.vendorByType[t][v] += s.vendor[t][v]
		}
	}
	return nil
}

func (c *typesCollector) finalize(out *scanState) error {
	c.grow(c.env.days)
	out.totalHOs = c.totalHOs
	out.totalFails = c.totalFails
	out.typeCounts = c.typeCounts
	out.typeDevCounts = c.typeDevCounts
	out.perDayTypeDev = slices.Clone(c.perDayTypeDev)
	out.typeFails = c.typeFails
	out.perDayTypeFails = slices.Clone(c.perDayFails)
	out.vendorByType = c.vendorByType
	return nil
}

// --- durations collector: exact signaling-time distributions ----------

type durationsCollector struct {
	durSuccess [ho.NumTypes]durHist
	durCause   [nCauseIdx]durHist

	shards shardFree[durationsShard]
}

// durationsShard buffers one partition's duration codes per class;
// MergeShard counts them into the collector's histograms.
type durationsShard struct {
	durSuccess [ho.NumTypes][]uint16
	durCause   [nCauseIdx][]uint16
}

func (c *durationsCollector) NewShardState(day, shard int) trace.ShardState {
	if s := c.shards.get(); s != nil {
		return s
	}
	return &durationsShard{}
}

// ObserveColumns files each record's duration code under its class. A
// duration that is not exactly a codec value cannot have come from an
// encoder, and mapping it to a code would change it, so it fails the
// scan as a corrupt block.
func (s *durationsShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	n := cb.Len()
	for i := 0; i < n; i++ {
		code, ok := trace.DurationCode(cb.Durations[i])
		if !ok {
			return fmt.Errorf("analysis: day %d: duration %v (bits %#08x) is not a stored value: %w",
				day, cb.Durations[i], math.Float32bits(cb.Durations[i]), trace.ErrCorruptBlock)
		}
		if cb.Results[i] == trace.Failure {
			ci := causeIdx(cb.Causes[i])
			s.durCause[ci] = append(s.durCause[ci], code)
		} else {
			t := hoTypeByRAT[cb.RATs[i]&0x0f]
			s.durSuccess[t] = append(s.durSuccess[t], code)
		}
	}
	return nil
}

// durationsShard reads result/HO-type/duration from the outcome tail and
// the cause.
func (c *durationsCollector) columns() trace.ColumnSet {
	return trace.ColCause | trace.ColOutcome
}

func (c *durationsCollector) MergeShard(st trace.ShardState) error {
	s := st.(*durationsShard)
	for i := range c.durSuccess {
		c.durSuccess[i].add(s.durSuccess[i])
		s.durSuccess[i] = s.durSuccess[i][:0]
	}
	for i := range c.durCause {
		c.durCause[i].add(s.durCause[i])
		s.durCause[i] = s.durCause[i][:0]
	}
	c.shards.put(s)
	return nil
}

func (c *durationsCollector) finalize(out *scanState) error {
	c.shards.drop()
	for i := range c.durSuccess {
		out.durSuccess[i] = c.durSuccess[i].dist()
	}
	for i := range c.durCause {
		out.durCause[i] = c.durCause[i].dist()
	}
	return nil
}

// --- causes collector: HOF cause breakdowns ----------------------------

type causesCollector struct {
	env             *scanEnv
	causeType       [ho.NumTypes][nCauseIdx]int64
	perDayCauseType [][ho.NumTypes][nCauseIdx]int64
	causeByDev      [3][nCauseIdx]int64
	causeByArea     [2][nCauseIdx]int64
	// causeByMfr is indexed by the dense topManufacturers index (see
	// tacInfo.mfr); finalize publishes it as the name-keyed map the
	// experiments consume.
	causeByMfr [nTopMfr][2][nCauseIdx]int64
}

func newCausesCollector(env *scanEnv) *causesCollector {
	return &causesCollector{env: env}
}

type causesShard struct {
	env          *scanEnv
	day          int
	causeType    [ho.NumTypes][nCauseIdx]int64
	dayCauseType [ho.NumTypes][nCauseIdx]int64
	causeByDev   [3][nCauseIdx]int64
	causeByArea  [2][nCauseIdx]int64
	causeByMfr   [nTopMfr][2][nCauseIdx]int64
}

func (c *causesCollector) NewShardState(day, shard int) trace.ShardState {
	return &causesShard{env: c.env, day: day}
}

// ObserveColumns skips the (dominant) success rows with one compare and
// resolves everything else through the dense tables.
func (s *causesShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	env := s.env
	n := cb.Len()
	for i := 0; i < n; i++ {
		if cb.Results[i] != trace.Failure {
			continue
		}
		ti, ok := env.lookupTAC(cb.TACs[i])
		if !ok {
			return fmt.Errorf("analysis: unknown TAC %d", cb.TACs[i])
		}
		t := hoTypeByRAT[cb.RATs[i]&0x0f]
		ci := causeIdx(cb.Causes[i])
		areaIdx := env.sectors[cb.Sources[i]].areaIdx
		s.causeType[t][ci]++
		s.dayCauseType[t][ci]++
		s.causeByDev[ti.devType][ci]++
		s.causeByArea[areaIdx][ci]++
		if ti.mfr >= 0 {
			s.causeByMfr[ti.mfr][areaIdx][ci]++
		}
	}
	return nil
}

// causesShard reads result/HO-type, the cause, the device and the
// source sector (area lookup).
func (c *causesCollector) columns() trace.ColumnSet {
	return trace.ColTAC | trace.ColSectors | trace.ColCause | trace.ColOutcome
}

func (c *causesCollector) MergeShard(st trace.ShardState) error {
	s := st.(*causesShard)
	if err := checkDay(c.env, s.day); err != nil {
		return err
	}
	c.perDayCauseType = growDays(c.perDayCauseType, s.day+1)
	for t := 0; t < int(ho.NumTypes); t++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			c.causeType[t][ci] += s.causeType[t][ci]
			c.perDayCauseType[s.day][t][ci] += s.dayCauseType[t][ci]
		}
	}
	for d := 0; d < 3; d++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			c.causeByDev[d][ci] += s.causeByDev[d][ci]
		}
	}
	for a := 0; a < 2; a++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			c.causeByArea[a][ci] += s.causeByArea[a][ci]
		}
	}
	for m := 0; m < nTopMfr; m++ {
		for a := 0; a < 2; a++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				c.causeByMfr[m][a][ci] += s.causeByMfr[m][a][ci]
			}
		}
	}
	return nil
}

func (c *causesCollector) finalize(out *scanState) error {
	c.perDayCauseType = growDays(c.perDayCauseType, c.env.days)
	out.causeType = c.causeType
	out.perDayCauseType = slices.Clone(c.perDayCauseType)
	out.causeByDev = c.causeByDev
	out.causeByArea = c.causeByArea
	out.causeByMfr = make(map[string]*[2][nCauseIdx]int64, nTopMfr)
	for m, name := range topManufacturers {
		byMfr := c.causeByMfr[m]
		out.causeByMfr[name] = &byMfr
	}
	return nil
}

// --- temporal collector: 30-min bins and hourly HOF profiles -----------

type temporalCollector struct {
	env *scanEnv

	binHOs     [][mobility.BinsPerDay][2]int64
	binActive  [][mobility.BinsPerDay][2]int32
	hourHOFs   [][24][2]int64
	hourActive [][24][2]int32

	// Current-day distinct-sector sets; partitions arrive day-ordered so
	// only one day's bitsets are live at a time. A set is allocated on
	// first use in a scan, zeroed by flushDay for the next day and
	// dropped by finalize; the used flags mark the sets the current day
	// touched.
	curDay      int
	curBinSec   [mobility.BinsPerDay][2]bitset
	curHourSec  [24][2]bitset
	curBinUsed  [mobility.BinsPerDay][2]bool
	curHourUsed [24][2]bool

	shards shardFree[temporalShard]
}

func newTemporalCollector(env *scanEnv) *temporalCollector {
	return &temporalCollector{env: env, curDay: -1}
}

// grow extends the per-day profiles to n days.
func (c *temporalCollector) grow(n int) {
	c.binHOs = growDays(c.binHOs, n)
	c.binActive = growDays(c.binActive, n)
	c.hourHOFs = growDays(c.hourHOFs, n)
	c.hourActive = growDays(c.hourActive, n)
}

type temporalShard struct {
	env      *scanEnv
	day      int
	dayBase  int64 // hoisted DayStart millis for the partition's day
	binHOs   [mobility.BinsPerDay][2]int64
	hourHOFs [24][2]int64
	binSec   [mobility.BinsPerDay][2]bitset
	hourSec  [24][2]bitset
}

func (c *temporalCollector) NewShardState(day, shard int) trace.ShardState {
	if s := c.shards.get(); s != nil {
		s.day, s.dayBase = day, dayStart(day)
		return s
	}
	return &temporalShard{env: c.env, day: day, dayBase: dayStart(day)}
}

// binOfMs clamps a record's offset from its day-start millis into a
// 30-minute bin. With the day start hoisted to the shard state the
// per-record cost is one subtraction and one division.
func binOfMs(dayBase, ts int64) int {
	bin := int((ts - dayBase) / (30 * 60 * 1000))
	if bin < 0 {
		bin = 0
	}
	if bin >= mobility.BinsPerDay {
		bin = mobility.BinsPerDay - 1
	}
	return bin
}

// ObserveColumns runs the bin/bitset accumulation over the timestamp,
// source and result columns only.
func (s *temporalShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	n := cb.Len()
	for i := 0; i < n; i++ {
		src := cb.Sources[i]
		areaIdx := s.env.sectors[src].areaIdx
		bin := binOfMs(s.dayBase, cb.Timestamps[i])
		hour := bin / 2
		s.binHOs[bin][areaIdx]++
		if s.binSec[bin][areaIdx] == nil {
			s.binSec[bin][areaIdx] = newBitset(s.env.nSectors)
		}
		s.binSec[bin][areaIdx].set(int(src))
		if s.hourSec[hour][areaIdx] == nil {
			s.hourSec[hour][areaIdx] = newBitset(s.env.nSectors)
		}
		s.hourSec[hour][areaIdx].set(int(src))
		if cb.Results[i] == trace.Failure {
			s.hourHOFs[hour][areaIdx]++
		}
	}
	return nil
}

func (c *temporalCollector) flushDay() {
	if c.curDay < 0 {
		return
	}
	for b := 0; b < mobility.BinsPerDay; b++ {
		for a := 0; a < 2; a++ {
			if c.curBinUsed[b][a] {
				c.binActive[c.curDay][b][a] = int32(c.curBinSec[b][a].drain())
				c.curBinUsed[b][a] = false
			}
		}
	}
	for h := 0; h < 24; h++ {
		for a := 0; a < 2; a++ {
			if c.curHourUsed[h][a] {
				c.hourActive[c.curDay][h][a] = int32(c.curHourSec[h][a].drain())
				c.curHourUsed[h][a] = false
			}
		}
	}
}

// temporalShard reads the source sector (area and active-sector bitsets)
// and the result bit; everything else is timestamp arithmetic.
func (c *temporalCollector) columns() trace.ColumnSet {
	return trace.ColSectors | trace.ColOutcome
}

// MergeShard folds a shard and zeroes it for reuse. A record of bin b
// sets both binHOs[b] and binSec[b] (and hourSec[b/2]), so the counts
// tell which of a reused shard's sets it touched.
func (c *temporalCollector) MergeShard(st trace.ShardState) error {
	s := st.(*temporalShard)
	if err := checkDay(c.env, s.day); err != nil {
		return err
	}
	if s.day != c.curDay {
		c.flushDay()
		c.curDay = s.day
		c.grow(s.day + 1)
	}
	n := c.env.nSectors
	for b := 0; b < mobility.BinsPerDay; b++ {
		for a := 0; a < 2; a++ {
			if s.binHOs[b][a] != 0 {
				c.binHOs[s.day][b][a] += s.binHOs[b][a]
				c.curBinUsed[b][a] = true
				orDrain(&c.curBinSec[b][a], s.binSec[b][a], n)
			}
		}
	}
	for h := 0; h < 24; h++ {
		for a := 0; a < 2; a++ {
			c.hourHOFs[s.day][h][a] += s.hourHOFs[h][a]
			if s.binHOs[2*h][a] != 0 || s.binHOs[2*h+1][a] != 0 {
				c.curHourUsed[h][a] = true
				orDrain(&c.curHourSec[h][a], s.hourSec[h][a], n)
			}
		}
	}
	s.binHOs = [mobility.BinsPerDay][2]int64{}
	s.hourHOFs = [24][2]int64{}
	c.shards.put(s)
	return nil
}

func (c *temporalCollector) finalize(out *scanState) error {
	c.shards.drop()
	c.flushDay()
	c.curDay = -1
	c.curBinSec, c.curHourSec = [mobility.BinsPerDay][2]bitset{}, [24][2]bitset{}
	c.grow(c.env.days)
	out.binHOs = slices.Clone(c.binHOs)
	out.binActive = slices.Clone(c.binActive)
	out.hourHOFs = slices.Clone(c.hourHOFs)
	out.hourActive = slices.Clone(c.hourActive)
	return nil
}

// --- districts collector -----------------------------------------------

type districtsCollector struct {
	env           *scanEnv
	districtHOs   []int64
	districtFails []int64
	districtType  [][ho.NumTypes]int64
}

func newDistrictsCollector(env *scanEnv) *districtsCollector {
	return &districtsCollector{
		env:           env,
		districtHOs:   make([]int64, env.nDistricts),
		districtFails: make([]int64, env.nDistricts),
		districtType:  make([][ho.NumTypes]int64, env.nDistricts),
	}
}

type districtsShard struct {
	env   *scanEnv
	hos   []int64
	fails []int64
	types [][ho.NumTypes]int64
}

func (c *districtsCollector) NewShardState(day, shard int) trace.ShardState {
	return &districtsShard{
		env:   c.env,
		hos:   make([]int64, c.env.nDistricts),
		fails: make([]int64, c.env.nDistricts),
		types: make([][ho.NumTypes]int64, c.env.nDistricts),
	}
}

// ObserveColumns loops over the source, RAT and result columns.
func (s *districtsShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	env := s.env
	n := cb.Len()
	for i := 0; i < n; i++ {
		d := env.sectors[cb.Sources[i]].district
		s.hos[d]++
		s.types[d][hoTypeByRAT[cb.RATs[i]&0x0f]]++
		if cb.Results[i] == trace.Failure {
			s.fails[d]++
		}
	}
	return nil
}

// districtsShard reads the source sector (district lookup) and the
// HO-type/result bits.
func (c *districtsCollector) columns() trace.ColumnSet {
	return trace.ColSectors | trace.ColOutcome
}

func (c *districtsCollector) MergeShard(st trace.ShardState) error {
	s := st.(*districtsShard)
	for d := 0; d < c.env.nDistricts; d++ {
		c.districtHOs[d] += s.hos[d]
		c.districtFails[d] += s.fails[d]
		for t := 0; t < int(ho.NumTypes); t++ {
			c.districtType[d][t] += s.types[d][t]
		}
	}
	return nil
}

func (c *districtsCollector) finalize(out *scanState) error {
	out.districtHOs = slices.Clone(c.districtHOs)
	out.districtFails = slices.Clone(c.districtFails)
	out.districtType = slices.Clone(c.districtType)
	return nil
}

// --- UE-day collector: per-UE totals and daily mobility metrics --------

type uedayCollector struct {
	env     *scanEnv
	ueHOs   []int32
	ueFails []int32
	ueDay   []UEDayMetric

	curDay int
	dayBuf []UEDayMetric

	shards shardFree[uedayShard]
}

func newUEDayCollector(env *scanEnv) *uedayCollector {
	return &uedayCollector{
		env:     env,
		ueHOs:   make([]int32, env.nUEs),
		ueFails: make([]int32, env.nUEs),
		curDay:  -1,
	}
}

// nightEndMs is the end of the §4.3 night window (08:00) as an offset
// from day start. "msOfDay < nightEndMs" matches the historical
// clamped-bin rule: negative offsets clamp into bin 0 (night) and
// beyond-day offsets clamp into hour 23 (not night).
const nightEndMs = 8 * 60 * 60 * 1000

// secSet is a tiny open-addressed set of sector ids — stored +1 so the
// zero word means empty — sized for the handful of distinct sectors a
// UE touches in one day. It replaces a map[SectorID]struct{} per UE:
// no per-UE map header, and membership is one hash plus a short probe.
type secSet struct {
	slots []uint32
	n     int
}

func (s *secSet) add(id uint32) {
	if len(s.slots) == 0 {
		s.slots = make([]uint32, 16)
	}
	mask := uint32(len(s.slots) - 1)
	j := uint32(mix64(uint64(id))) & mask
	for {
		w := s.slots[j]
		if w == 0 {
			break
		}
		if w == id+1 {
			return
		}
		j = (j + 1) & mask
	}
	if s.n >= len(s.slots)*3/4 {
		old := s.slots
		s.slots = make([]uint32, 2*len(old))
		mask = uint32(len(s.slots) - 1)
		for _, w := range old {
			if w == 0 {
				continue
			}
			k := uint32(mix64(uint64(w-1))) & mask
			for s.slots[k] != 0 {
				k = (k + 1) & mask
			}
			s.slots[k] = w
		}
		j = uint32(mix64(uint64(id))) & mask
		for s.slots[j] != 0 {
			j = (j + 1) & mask
		}
	}
	s.slots[j] = id + 1
	s.n++
}

// secVisit is one dwell at a sector: the sector index stands in for the
// geo.Point (every visit location is a sector location), so the in-flight
// log is 16 bytes per dwell instead of a 32-byte geo.Visit, and the trig
// tables in sectorMeta turn it back into a geo.TrigVisit at flush time.
type secVisit struct {
	sector int32
	weight float64
}

// ueState is one UE's in-flight state within one (day, shard) partition.
// Because shards are hash-partitioned by UE, a UE's whole day lives in
// exactly one partition, so the flush below sees complete days.
type ueState struct {
	ue        trace.UEID
	hasLoc    bool
	hos       int32
	fails     int32
	nightSite int32
	sectors   secSet
	// seen1/seen2 cache the last two sector ids added to the set (+1,
	// 0 = none): successive handovers chain source := previous target,
	// so most membership probes are answered by two register compares.
	seen1, seen2 uint32
	visits       []secVisit
	lastTs       int64
	lastSec      int32
}

// addSector records a visited sector through the two-entry cache.
func (st *ueState) addSector(id uint32) {
	if id+1 == st.seen1 || id+1 == st.seen2 {
		return
	}
	st.sectors.add(id)
	st.seen2 = st.seen1
	st.seen1 = id + 1
}

// appendVisit grows the visit log with a useful starting capacity (a
// typical UE-day closes a dozen-plus dwells; the default doubling from
// 1 costs several small allocations per UE per day).
func (st *ueState) appendVisit(v secVisit) {
	if st.visits == nil {
		st.visits = make([]secVisit, 0, 16)
	}
	st.visits = append(st.visits, v)
}

// ueTable is an open-addressed UE → state table over a flat arena,
// replacing the map[UEID]*ueState accumulator: states are contiguous
// (no per-UE pointer allocation), the common-case probe is one hash and
// one compare, and the arena iterates in first-appearance order at
// flush time. Slots hold arena index + 1 (0 = empty) with the key in a
// parallel array so probing never touches the arena.
type ueTable struct {
	slots  []int32
	keys   []trace.UEID
	states []ueState
}

// index returns the arena index of ue's state, inserting a fresh one if
// needed. Unlike a pointer into the arena, the index stays valid across
// inserts, so batch loops can cache it per UE.
func (t *ueTable) index(ue trace.UEID) int32 {
	if len(t.slots) == 0 {
		t.slots = make([]int32, 2048)
		t.keys = make([]trace.UEID, 2048)
	}
	mask := uint64(len(t.slots) - 1)
	j := mix64(uint64(ue)) & mask
	for {
		idx := t.slots[j]
		if idx == 0 {
			break
		}
		if t.keys[j] == ue {
			return idx - 1
		}
		j = (j + 1) & mask
	}
	if len(t.states) >= len(t.slots)*3/4 {
		t.grow()
		mask = uint64(len(t.slots) - 1)
		j = mix64(uint64(ue)) & mask
		for t.slots[j] != 0 {
			j = (j + 1) & mask
		}
	}
	t.push(ue)
	t.slots[j] = int32(len(t.states))
	t.keys[j] = ue
	return int32(len(t.states) - 1)
}

// push appends a fresh state for ue. A state slot left behind by reset
// lends its sector-set and visit-log buffers to the new state.
func (t *ueTable) push(ue trace.UEID) {
	n := len(t.states)
	if n == cap(t.states) {
		t.states = append(t.states, ueState{ue: ue, nightSite: -1})
		return
	}
	t.states = t.states[:n+1]
	st := &t.states[n]
	slots := st.sectors.slots
	clear(slots)
	*st = ueState{ue: ue, nightSite: -1, sectors: secSet{slots: slots}, visits: st.visits[:0]}
}

// reset empties the table, keeping its slots and state arena for reuse.
func (t *ueTable) reset() {
	clear(t.slots)
	t.states = t.states[:0]
}

func (t *ueTable) grow() {
	oldSlots, oldKeys := t.slots, t.keys
	t.slots = make([]int32, 2*len(oldSlots))
	t.keys = make([]trace.UEID, 2*len(oldSlots))
	mask := uint64(len(t.slots) - 1)
	for i, idx := range oldSlots {
		if idx == 0 {
			continue
		}
		j := mix64(uint64(oldKeys[i])) & mask
		for t.slots[j] != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = idx
		t.keys[j] = oldKeys[i]
	}
}

// uedayShard tracks only the UEs that actually appear in its partition
// (≈ nUEs/shards of them), not the whole population: per-partition state
// must stay proportional to the partition, or countrywide-scale scans
// would allocate full-population arrays once per (day, shard).
type uedayShard struct {
	env     *scanEnv
	day     int
	dayBase int64
	tbl     ueTable
	// lastUE/lastIdx cache the arena index of the most recent UE:
	// handovers arrive in per-UE bursts (a session chains source :=
	// previous target), so the batch loop usually skips the table probe.
	// The index — not the pointer — is cached because the arena moves on
	// growth.
	lastUE  trace.UEID
	lastIdx int32
	// rows holds the partition's finished UE-day metrics, built by
	// FinishPartition on the scan worker; the buffer is recycled with
	// the state.
	rows []UEDayMetric
	// trigScratch is the reusable per-flush buffer the compact visit log
	// expands into (no per-UE allocation at finish time).
	trigScratch []geo.TrigVisit
}

func (c *uedayCollector) NewShardState(day, shard int) trace.ShardState {
	if s := c.shards.get(); s != nil {
		s.day, s.dayBase, s.lastIdx = day, dayStart(day), -1
		return s
	}
	return &uedayShard{env: c.env, day: day, dayBase: dayStart(day), lastIdx: -1}
}

// ObserveColumns runs the per-UE accumulation over the column batch with
// the per-record work hoisted: the night-window cutoff is a precomputed
// absolute timestamp, the column slices are bound once, and the UE state
// lookup is answered by the last-UE cache for the common in-burst case.
func (s *uedayShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	n := cb.Len()
	tss := cb.Timestamps
	ues := cb.UEs
	srcs := cb.Sources
	tgts := cb.Targets
	ress := cb.Results
	nightCut := s.dayBase + nightEndMs
	lastUE, lastIdx := s.lastUE, s.lastIdx
	for i := 0; i < n; i++ {
		ue := ues[i]
		if ue != lastUE || lastIdx < 0 {
			lastIdx = s.tbl.index(ue)
			lastUE = ue
		}
		st := &s.tbl.states[lastIdx]
		ts := tss[i]
		st.hos++
		st.addSector(uint32(srcs[i]))
		if st.nightSite < 0 && ts < nightCut {
			st.nightSite = s.env.sectors[srcs[i]].site
		}
		if ress[i] == trace.Failure {
			st.fails++
			continue
		}
		tgt := tgts[i]
		st.addSector(uint32(tgt))
		// Visit tracking for gyration: close the previous dwell.
		if st.hasLoc {
			if w := float64(ts - st.lastTs); w > 0 {
				st.appendVisit(secVisit{sector: st.lastSec, weight: w})
			}
		}
		st.lastSec = int32(tgt)
		st.lastTs = ts
		st.hasLoc = true
	}
	s.lastUE, s.lastIdx = lastUE, lastIdx
	return nil
}

// FinishPartition builds the partition's UE-day rows on the scan worker:
// a UE's whole day lies in this one partition (shards are UE-hash
// partitioned), so its rows depend on this state alone, and the serial
// MergeShard is left with the sums and the append.
func (s *uedayShard) FinishPartition() error {
	s.rows = s.flush(s.rows[:0])
	s.tbl.reset()
	return nil
}

// flush appends the shard's in-flight UE states to out as finished day
// metrics (in first-appearance order — the collector sorts each day's
// buffer canonically).
func (s *uedayShard) flush(out []UEDayMetric) []UEDayMetric {
	endOfDay := dayStart(s.day + 1)
	out = slices.Grow(out, len(s.tbl.states))
	trig := s.trigScratch
	for i := range s.tbl.states {
		st := &s.tbl.states[i]
		if st.hasLoc {
			if w := float64(endOfDay - st.lastTs); w > 0 {
				st.visits = append(st.visits, secVisit{sector: st.lastSec, weight: w})
			}
		}
		// Expand the compact sector-indexed dwell log into the reused
		// trig-visit scratch; the tabulated trig makes the gyration loop
		// haversine-free while staying bit-identical to the reference.
		trig = trig[:0]
		for _, v := range st.visits {
			m := &s.env.sectors[v.sector]
			trig = append(trig, geo.TrigVisit{
				Loc: m.loc, LatRad: m.latRad, LonRad: m.lonRad, CosLat: m.cosLat,
				Weight: v.weight,
			})
		}
		out = append(out, UEDayMetric{
			UE:         st.ue,
			Day:        int32(s.day),
			Sectors:    int32(st.sectors.n),
			HOs:        st.hos,
			Fails:      st.fails,
			GyrationKm: float32(geo.RadiusOfGyrationTrigKm(trig)),
			NightSite:  st.nightSite,
		})
	}
	s.trigScratch = trig[:0]
	return out
}

func (c *uedayCollector) flushDay() {
	if c.curDay < 0 {
		return
	}
	// Canonical order: UE ascending within the day (each UE contributes
	// at most one metric per day, so the sort is unambiguous).
	sort.Slice(c.dayBuf, func(i, j int) bool { return c.dayBuf[i].UE < c.dayBuf[j].UE })
	c.ueDay = append(c.ueDay, c.dayBuf...)
	c.dayBuf = c.dayBuf[:0]
}

// uedayShard reads the UE, both sectors (visited set and gyration
// locations) and the result bit.
func (c *uedayCollector) columns() trace.ColumnSet {
	return trace.ColUE | trace.ColSectors | trace.ColOutcome
}

func (c *uedayCollector) MergeShard(st trace.ShardState) error {
	s := st.(*uedayShard)
	if err := checkDay(c.env, s.day); err != nil {
		return err
	}
	if s.day != c.curDay {
		c.flushDay()
		c.curDay = s.day
	}
	for i := range s.rows {
		m := &s.rows[i]
		c.ueHOs[m.UE] += m.HOs
		c.ueFails[m.UE] += m.Fails
	}
	c.dayBuf = append(c.dayBuf, s.rows...)
	s.rows = s.rows[:0]
	c.shards.put(s)
	return nil
}

func (c *uedayCollector) finalize(out *scanState) error {
	c.shards.drop()
	c.flushDay()
	c.curDay = -1
	out.ueHOs = slices.Clone(c.ueHOs)
	out.ueFails = slices.Clone(c.ueFails)
	out.ueDay = slices.Clip(c.ueDay)
	return nil
}

// --- sector-day collector: the §6.3 regression dataset -----------------

type sectordayCollector struct {
	env       *scanEnv
	sectorDay []SectorDayRow

	curDay int
	// Dense per-day accumulators, indexed by sector*NumTypes+type (and
	// by sector for totals); allocated on a scan's first merged day,
	// zeroed by flushDay and reused for the next, dropped by finalize.
	dayHOs    []int32
	dayFails  []int32
	dayTotals []int32

	shards shardFree[sectordayShard]
}

func newSectorDayCollector(env *scanEnv) *sectordayCollector {
	return &sectordayCollector{env: env, curDay: -1}
}

// sectordayShard accumulates into dense arrays sized to the sector
// universe instead of (sector, type)-keyed maps: one add per record at
// a fixed offset, no hashing, and the ascending index order at flush
// time *is* the canonical (sector, type) row order. touched lists the
// sectors seen, so folding a shard and zeroing it for reuse cost the
// partition's sectors, not the whole universe.
type sectordayShard struct {
	day     int
	hos     []int32 // sector*NumTypes+type
	fails   []int32
	totals  []int32 // per sector, all types
	touched []int32
}

func (c *sectordayCollector) NewShardState(day, shard int) trace.ShardState {
	if s := c.shards.get(); s != nil {
		s.day = day
		return s
	}
	nt := int(ho.NumTypes)
	return &sectordayShard{
		day:    day,
		hos:    make([]int32, c.env.nSectors*nt),
		fails:  make([]int32, c.env.nSectors*nt),
		totals: make([]int32, c.env.nSectors),
	}
}

// add counts one record of the given sector and HO type.
func (s *sectordayShard) add(src int, t ho.Type, res trace.Result) {
	k := src*int(ho.NumTypes) + int(t)
	s.hos[k]++
	if res == trace.Failure {
		s.fails[k]++
	}
	if s.totals[src] == 0 {
		s.touched = append(s.touched, int32(src))
	}
	s.totals[src]++
}

// ObserveColumns is the dense-accumulator batch loop.
func (s *sectordayShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	n := cb.Len()
	for i := 0; i < n; i++ {
		s.add(int(cb.Sources[i]), hoTypeByRAT[cb.RATs[i]&0x0f], cb.Results[i])
	}
	return nil
}

// flushDay emits the finished day's rows in canonical (sector, type)
// order — the dense arrays' natural index order; v1 emitted them in
// map-iteration order, which made downstream float accumulation (OLS,
// ANOVA) wobble run to run — and zeroes the day arrays behind it.
func (c *sectordayCollector) flushDay() {
	if c.curDay < 0 || c.dayHOs == nil {
		return
	}
	nt := int(ho.NumTypes)
	if len(c.sectorDay) == 0 {
		// A cold scan's first day. Days look alike, so reserve this many
		// rows for each remaining study day, and the row set is allocated
		// about once instead of regrown by append's ≈1.25× steps, which
		// copy it several times over. (A windowed scan reserves at most
		// what a whole-study scan holds; an incremental one, appending a
		// day to a resumed row set, grows it as append does.)
		rows := 0
		for _, v := range c.dayHOs {
			if v != 0 {
				rows++
			}
		}
		c.sectorDay = slices.Grow(c.sectorDay, rows*max(c.env.days-c.curDay, 1))
	}
	for sec := 0; sec < c.env.nSectors; sec++ {
		base := sec * nt
		if c.dayTotals[sec] == 0 {
			continue // no rows for this sector today
		}
		sector := c.env.ds.Network.Sector(topology.SectorID(sec))
		district := c.env.ds.Country.District(sector.DistrictID)
		for t := 0; t < nt; t++ {
			if c.dayHOs[base+t] == 0 {
				continue
			}
			c.sectorDay = append(c.sectorDay, SectorDayRow{
				Sector:      topology.SectorID(sec),
				Day:         int16(c.curDay),
				Type:        ho.Type(t),
				HOs:         c.dayHOs[base+t],
				Fails:       c.dayFails[base+t],
				TotalDayHOs: c.dayTotals[sec],
				Region:      sector.Region,
				Area:        sector.Area,
				Vendor:      sector.Vendor,
				DistrictPop: int32(district.Population),
			})
			c.dayHOs[base+t], c.dayFails[base+t] = 0, 0
		}
		c.dayTotals[sec] = 0
	}
}

// sectordayShard reads the source sector and the HO-type/result bits.
func (c *sectordayCollector) columns() trace.ColumnSet {
	return trace.ColSectors | trace.ColOutcome
}

func (c *sectordayCollector) MergeShard(st trace.ShardState) error {
	s := st.(*sectordayShard)
	if err := checkDay(c.env, s.day); err != nil {
		return err
	}
	if s.day != c.curDay {
		c.flushDay()
		c.curDay = s.day
		if c.dayHOs == nil {
			nt := int(ho.NumTypes)
			c.dayHOs = make([]int32, c.env.nSectors*nt)
			c.dayFails = make([]int32, c.env.nSectors*nt)
			c.dayTotals = make([]int32, c.env.nSectors)
		}
	}
	nt := int(ho.NumTypes)
	for _, sec := range s.touched {
		for k := int(sec) * nt; k < int(sec+1)*nt; k++ {
			c.dayHOs[k] += s.hos[k]
			c.dayFails[k] += s.fails[k]
			s.hos[k], s.fails[k] = 0, 0
		}
		c.dayTotals[sec] += s.totals[sec]
		s.totals[sec] = 0
	}
	s.touched = s.touched[:0]
	c.shards.put(s)
	return nil
}

func (c *sectordayCollector) finalize(out *scanState) error {
	c.shards.drop()
	c.flushDay()
	c.curDay = -1
	c.dayHOs, c.dayFails, c.dayTotals = nil, nil, nil
	out.sectorDay = slices.Clip(c.sectorDay)
	return nil
}
