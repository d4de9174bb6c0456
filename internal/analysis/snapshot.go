package analysis

import (
	"encoding/binary"
	"fmt"
	"math"

	"telcolens/internal/ho"
	"telcolens/internal/mobility"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// Collector snapshots: every scan-state unit can be snapshotted into a
// CollectorState — a detached, mergeable copy of its dense accumulators
// with a versioned, deterministic binary encoding. Snapshots are what
// make analysis incremental: Analyzer.Checkpoint serializes them,
// ResumeAnalyzer merges them back into empty collectors, and the
// day-growth rebase re-homes them onto a larger study window. The
// encoding is fixed-field-order little-endian (bulk fixed-width rows for
// the large row sets), so marshaling the same state twice yields the
// same bytes — the property the snapshot round-trip tests pin down.

// CollectorState is a serializable, mergeable snapshot of one
// collector's merged accumulators.
type CollectorState interface {
	// Need identifies the scan-state unit the snapshot belongs to.
	Need() Need
	// MarshalBinary encodes the state deterministically (same state,
	// same bytes).
	MarshalBinary() ([]byte, error)
	// UnmarshalBinary decodes an encoding produced by MarshalBinary.
	UnmarshalBinary(data []byte) error
}

// newCollectorState returns the empty concrete state for one unit,
// ready for UnmarshalBinary.
func newCollectorState(need Need) (CollectorState, error) {
	switch need {
	case NeedTypes:
		return &typesState{}, nil
	case NeedDurations:
		return &durationsState{}, nil
	case NeedCauses:
		return &causesState{}, nil
	case NeedTemporal:
		return &temporalState{}, nil
	case NeedDistricts:
		return &districtsState{}, nil
	case NeedUEDay:
		return &uedayState{}, nil
	case NeedSectorDay:
		return &sectordayState{}, nil
	case NeedPingPong:
		return &pingpongState{}, nil
	}
	return nil, fmt.Errorf("analysis: no collector state for need %b", need)
}

// snapshotVersion tags every marshaled collector state; bump on any
// encoding change. Version 2 added the ping-pong state, which version 1
// checkpoints carried in a section of their own.
const snapshotVersion = 2

// --- deterministic binary encoding helpers -----------------------------

type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) f32(v float32) { e.u32(math.Float32bits(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) i64s(s []int64) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.i64(v)
	}
}

func (e *enc) i32s(s []int32) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.i32(v)
	}
}

func (e *enc) u64s(s []uint64) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.u64(v)
	}
}

func (e *enc) f64s(s []float64) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.f64(v)
	}
}

type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("analysis: truncated collector state")
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil || len(d.b) < n {
		d.fail()
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) u8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *dec) u16() uint16 {
	if b := d.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (d *dec) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) f32() float32 { return math.Float32frombits(d.u32()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// length reads a count prefix, bounding it by the remaining bytes over
// the per-element width so corrupt inputs cannot force huge allocations.
func (d *dec) length(elemBytes int) int {
	n := int(d.u32())
	if d.err == nil && n*elemBytes > len(d.b) {
		d.fail()
		return 0
	}
	return n
}

func (d *dec) i64s() []int64 {
	n := d.length(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.i64()
	}
	return out
}

func (d *dec) i32s() []int32 {
	n := d.length(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
}

func (d *dec) u64s() []uint64 {
	n := d.length(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.u64()
	}
	return out
}

func (d *dec) f64s() []float64 {
	n := d.length(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

// header/checkHeader bracket every state encoding with the version and
// the unit it belongs to.
func header(e *enc, need Need) {
	e.u8(snapshotVersion)
	e.u32(uint32(need))
}

func checkHeader(d *dec, need Need) error {
	if v := d.u8(); d.err == nil && v != snapshotVersion {
		return fmt.Errorf("analysis: collector state version %d, want %d", v, snapshotVersion)
	}
	if got := Need(d.u32()); d.err == nil && got != need {
		return fmt.Errorf("analysis: collector state for need %b, want %b", got, need)
	}
	return d.err
}

const nTypes = int(ho.NumTypes)

// --- types --------------------------------------------------------------

type typesState struct {
	days          int
	totalHOs      int64
	totalFails    int64
	typeCounts    [ho.NumTypes]int64
	typeDevCounts [ho.NumTypes][3]int64
	perDayTypeDev [][ho.NumTypes][3]int64
	typeFails     [ho.NumTypes]int64
	perDayFails   [][ho.NumTypes]int64
	vendorByType  [ho.NumTypes][4]int64
	bytesRead     int64
}

func (s *typesState) Need() Need { return NeedTypes }

func (s *typesState) MarshalBinary() ([]byte, error) {
	e := &enc{}
	header(e, NeedTypes)
	e.u32(uint32(s.days))
	e.i64(s.totalHOs)
	e.i64(s.totalFails)
	e.i64(s.bytesRead)
	for t := 0; t < nTypes; t++ {
		e.i64(s.typeCounts[t])
		e.i64(s.typeFails[t])
		for d := 0; d < 3; d++ {
			e.i64(s.typeDevCounts[t][d])
		}
		for v := 0; v < 4; v++ {
			e.i64(s.vendorByType[t][v])
		}
	}
	for day := 0; day < s.days; day++ {
		for t := 0; t < nTypes; t++ {
			e.i64(s.perDayFails[day][t])
			for d := 0; d < 3; d++ {
				e.i64(s.perDayTypeDev[day][t][d])
			}
		}
	}
	return e.b, nil
}

func (s *typesState) UnmarshalBinary(data []byte) error {
	d := &dec{b: data}
	if err := checkHeader(d, NeedTypes); err != nil {
		return err
	}
	s.days = int(d.u32())
	if d.err == nil && s.days > len(d.b) {
		return fmt.Errorf("analysis: types state day count %d exceeds payload", s.days)
	}
	s.totalHOs = d.i64()
	s.totalFails = d.i64()
	s.bytesRead = d.i64()
	for t := 0; t < nTypes; t++ {
		s.typeCounts[t] = d.i64()
		s.typeFails[t] = d.i64()
		for dv := 0; dv < 3; dv++ {
			s.typeDevCounts[t][dv] = d.i64()
		}
		for v := 0; v < 4; v++ {
			s.vendorByType[t][v] = d.i64()
		}
	}
	s.perDayFails = make([][ho.NumTypes]int64, s.days)
	s.perDayTypeDev = make([][ho.NumTypes][3]int64, s.days)
	for day := 0; day < s.days; day++ {
		for t := 0; t < nTypes; t++ {
			s.perDayFails[day][t] = d.i64()
			for dv := 0; dv < 3; dv++ {
				s.perDayTypeDev[day][t][dv] = d.i64()
			}
		}
	}
	return d.err
}

func (c *typesCollector) Snapshot() CollectorState {
	s := &typesState{
		days:          c.env.days,
		totalHOs:      c.totalHOs,
		totalFails:    c.totalFails,
		typeCounts:    c.typeCounts,
		typeDevCounts: c.typeDevCounts,
		typeFails:     c.typeFails,
		vendorByType:  c.vendorByType,
		bytesRead:     c.bytesRead,
		perDayTypeDev: append([][ho.NumTypes][3]int64(nil), c.perDayTypeDev...),
		perDayFails:   append([][ho.NumTypes]int64(nil), c.perDayFails...),
	}
	return s
}

func (c *typesCollector) Merge(st CollectorState) error {
	s, ok := st.(*typesState)
	if !ok {
		return fmt.Errorf("analysis: merging %T into types collector", st)
	}
	if s.days > c.env.days {
		return fmt.Errorf("analysis: types state covers %d days, collector only %d", s.days, c.env.days)
	}
	c.totalHOs += s.totalHOs
	c.totalFails += s.totalFails
	c.bytesRead += s.bytesRead
	for t := 0; t < nTypes; t++ {
		c.typeCounts[t] += s.typeCounts[t]
		c.typeFails[t] += s.typeFails[t]
		for d := 0; d < 3; d++ {
			c.typeDevCounts[t][d] += s.typeDevCounts[t][d]
		}
		for v := 0; v < 4; v++ {
			c.vendorByType[t][v] += s.vendorByType[t][v]
		}
	}
	for day := 0; day < s.days; day++ {
		for t := 0; t < nTypes; t++ {
			c.perDayFails[day][t] += s.perDayFails[day][t]
			for d := 0; d < 3; d++ {
				c.perDayTypeDev[day][t][d] += s.perDayTypeDev[day][t][d]
			}
		}
	}
	return nil
}

// --- durations ----------------------------------------------------------

type samplerState struct {
	capacity int
	salt     uint64
	n        int64
	pri      []uint64
	val      []float64
}

func (s *samplerState) encode(e *enc) {
	e.u32(uint32(s.capacity))
	e.u64(s.salt)
	e.i64(s.n)
	e.u64s(s.pri)
	e.f64s(s.val)
}

func (s *samplerState) decode(d *dec) {
	s.capacity = int(d.u32())
	s.salt = d.u64()
	s.n = d.i64()
	s.pri = d.u64s()
	s.val = d.f64s()
	if d.err == nil && len(s.pri) != len(s.val) {
		d.err = fmt.Errorf("analysis: sampler state pri/val lengths differ")
		return
	}
	// Snapshots are written in canonical ascending order; verify it so a
	// corrupt stream cannot poison the sorted-run invariant mergeSampler
	// hands the sampler.
	for i := 1; i < len(s.pri) && d.err == nil; i++ {
		if pvLess(s.pri[i], s.val[i], s.pri[i-1], s.val[i-1]) {
			d.err = fmt.Errorf("analysis: sampler state not in canonical order")
		}
	}
}

// snapshotSampler copies a sampler's exact bottom-k in canonical order
// (seal prunes and sorts; it is idempotent, so snapshotting a live
// collector between scans is free when nothing changed).
func snapshotSampler(s *sampler, sc *sealScratch) samplerState {
	s.seal(sc)
	return samplerState{
		capacity: s.capacity,
		salt:     s.salt,
		n:        s.n,
		pri:      append([]uint64(nil), s.pri...),
		val:      append([]float64(nil), s.val...),
	}
}

// mergeSampler folds a snapshot into a live sampler (exact: bottom-k of
// the union). An empty receiver adopts the snapshot's arrays directly —
// they are already in sealed canonical order (Snapshot copies, decode
// verifies), so the restored sampler needs no re-sort, and a snapshot
// at capacity brings its bound, so the first delta is filtered.
func mergeSampler(dst *sampler, st *samplerState) error {
	if dst.capacity != st.capacity || dst.salt != st.salt {
		return fmt.Errorf("analysis: sampler state (cap %d, salt %x) does not match collector (cap %d, salt %x)",
			st.capacity, st.salt, dst.capacity, dst.salt)
	}
	if dst.n == 0 && len(dst.pri) == 0 && len(st.pri) <= st.capacity {
		dst.n = st.n
		dst.pri = st.pri
		dst.val = st.val
		dst.sealed = true
		dst.sortedPrefix = len(st.pri)
		dst.full = len(st.pri) == st.capacity
		dst.sortedVal = nil
		return nil
	}
	dst.absorb(&sampler{
		capacity: st.capacity,
		salt:     st.salt,
		n:        st.n,
		pri:      st.pri,
		val:      st.val,
	})
	return nil
}

type durationsState struct {
	durSuccess [ho.NumTypes]samplerState
	durCause   [nCauseIdx]samplerState
}

func (s *durationsState) Need() Need { return NeedDurations }

func (s *durationsState) MarshalBinary() ([]byte, error) {
	e := &enc{}
	header(e, NeedDurations)
	for i := range s.durSuccess {
		s.durSuccess[i].encode(e)
	}
	for i := range s.durCause {
		s.durCause[i].encode(e)
	}
	return e.b, nil
}

func (s *durationsState) UnmarshalBinary(data []byte) error {
	d := &dec{b: data}
	if err := checkHeader(d, NeedDurations); err != nil {
		return err
	}
	for i := range s.durSuccess {
		s.durSuccess[i].decode(d)
	}
	for i := range s.durCause {
		s.durCause[i].decode(d)
	}
	return d.err
}

func (c *durationsCollector) Snapshot() CollectorState {
	s := &durationsState{}
	var sc sealScratch
	for i := range c.durSuccess {
		s.durSuccess[i] = snapshotSampler(c.durSuccess[i], &sc)
	}
	for i := range c.durCause {
		s.durCause[i] = snapshotSampler(c.durCause[i], &sc)
	}
	return s
}

func (c *durationsCollector) Merge(st CollectorState) error {
	s, ok := st.(*durationsState)
	if !ok {
		return fmt.Errorf("analysis: merging %T into durations collector", st)
	}
	for i := range c.durSuccess {
		if err := mergeSampler(c.durSuccess[i], &s.durSuccess[i]); err != nil {
			return err
		}
	}
	for i := range c.durCause {
		if err := mergeSampler(c.durCause[i], &s.durCause[i]); err != nil {
			return err
		}
	}
	return nil
}

// --- causes -------------------------------------------------------------

type causesState struct {
	days            int
	causeType       [ho.NumTypes][nCauseIdx]int64
	perDayCauseType [][ho.NumTypes][nCauseIdx]int64
	causeByDev      [3][nCauseIdx]int64
	causeByArea     [2][nCauseIdx]int64
	causeByMfr      [nTopMfr][2][nCauseIdx]int64
}

func (s *causesState) Need() Need { return NeedCauses }

func (s *causesState) MarshalBinary() ([]byte, error) {
	e := &enc{}
	header(e, NeedCauses)
	e.u32(uint32(s.days))
	for t := 0; t < nTypes; t++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			e.i64(s.causeType[t][ci])
		}
	}
	for d := 0; d < 3; d++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			e.i64(s.causeByDev[d][ci])
		}
	}
	for a := 0; a < 2; a++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			e.i64(s.causeByArea[a][ci])
		}
	}
	for m := 0; m < nTopMfr; m++ {
		for a := 0; a < 2; a++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				e.i64(s.causeByMfr[m][a][ci])
			}
		}
	}
	for day := 0; day < s.days; day++ {
		for t := 0; t < nTypes; t++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				e.i64(s.perDayCauseType[day][t][ci])
			}
		}
	}
	return e.b, nil
}

func (s *causesState) UnmarshalBinary(data []byte) error {
	d := &dec{b: data}
	if err := checkHeader(d, NeedCauses); err != nil {
		return err
	}
	s.days = int(d.u32())
	if d.err == nil && s.days > len(d.b) {
		return fmt.Errorf("analysis: causes state day count %d exceeds payload", s.days)
	}
	for t := 0; t < nTypes; t++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			s.causeType[t][ci] = d.i64()
		}
	}
	for dv := 0; dv < 3; dv++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			s.causeByDev[dv][ci] = d.i64()
		}
	}
	for a := 0; a < 2; a++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			s.causeByArea[a][ci] = d.i64()
		}
	}
	for m := 0; m < nTopMfr; m++ {
		for a := 0; a < 2; a++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				s.causeByMfr[m][a][ci] = d.i64()
			}
		}
	}
	s.perDayCauseType = make([][ho.NumTypes][nCauseIdx]int64, s.days)
	for day := 0; day < s.days; day++ {
		for t := 0; t < nTypes; t++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				s.perDayCauseType[day][t][ci] = d.i64()
			}
		}
	}
	return d.err
}

func (c *causesCollector) Snapshot() CollectorState {
	return &causesState{
		days:            c.env.days,
		causeType:       c.causeType,
		perDayCauseType: append([][ho.NumTypes][nCauseIdx]int64(nil), c.perDayCauseType...),
		causeByDev:      c.causeByDev,
		causeByArea:     c.causeByArea,
		causeByMfr:      c.causeByMfr,
	}
}

func (c *causesCollector) Merge(st CollectorState) error {
	s, ok := st.(*causesState)
	if !ok {
		return fmt.Errorf("analysis: merging %T into causes collector", st)
	}
	if s.days > c.env.days {
		return fmt.Errorf("analysis: causes state covers %d days, collector only %d", s.days, c.env.days)
	}
	for t := 0; t < nTypes; t++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			c.causeType[t][ci] += s.causeType[t][ci]
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
	for day := 0; day < s.days; day++ {
		for t := 0; t < nTypes; t++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				c.perDayCauseType[day][t][ci] += s.perDayCauseType[day][t][ci]
			}
		}
	}
	return nil
}

// --- temporal -----------------------------------------------------------

type temporalState struct {
	days       int
	binHOs     [][mobility.BinsPerDay][2]int64
	binActive  [][mobility.BinsPerDay][2]int32
	hourHOFs   [][24][2]int64
	hourActive [][24][2]int32
}

func (s *temporalState) Need() Need { return NeedTemporal }

func (s *temporalState) MarshalBinary() ([]byte, error) {
	e := &enc{}
	header(e, NeedTemporal)
	e.u32(uint32(s.days))
	for day := 0; day < s.days; day++ {
		for b := 0; b < mobility.BinsPerDay; b++ {
			for a := 0; a < 2; a++ {
				e.i64(s.binHOs[day][b][a])
				e.i32(s.binActive[day][b][a])
			}
		}
		for h := 0; h < 24; h++ {
			for a := 0; a < 2; a++ {
				e.i64(s.hourHOFs[day][h][a])
				e.i32(s.hourActive[day][h][a])
			}
		}
	}
	return e.b, nil
}

func (s *temporalState) UnmarshalBinary(data []byte) error {
	d := &dec{b: data}
	if err := checkHeader(d, NeedTemporal); err != nil {
		return err
	}
	s.days = int(d.u32())
	if d.err == nil && s.days > len(d.b) {
		return fmt.Errorf("analysis: temporal state day count %d exceeds payload", s.days)
	}
	s.binHOs = make([][mobility.BinsPerDay][2]int64, s.days)
	s.binActive = make([][mobility.BinsPerDay][2]int32, s.days)
	s.hourHOFs = make([][24][2]int64, s.days)
	s.hourActive = make([][24][2]int32, s.days)
	for day := 0; day < s.days; day++ {
		for b := 0; b < mobility.BinsPerDay; b++ {
			for a := 0; a < 2; a++ {
				s.binHOs[day][b][a] = d.i64()
				s.binActive[day][b][a] = d.i32()
			}
		}
		for h := 0; h < 24; h++ {
			for a := 0; a < 2; a++ {
				s.hourHOFs[day][h][a] = d.i64()
				s.hourActive[day][h][a] = d.i32()
			}
		}
	}
	return d.err
}

func (c *temporalCollector) Snapshot() CollectorState {
	// Quiescent-point contract: flush any in-flight day so the distinct
	// counts are final (idempotent; a no-op after finalize).
	c.flushDay()
	c.curDay = -1
	return &temporalState{
		days:       c.env.days,
		binHOs:     append([][mobility.BinsPerDay][2]int64(nil), c.binHOs...),
		binActive:  append([][mobility.BinsPerDay][2]int32(nil), c.binActive...),
		hourHOFs:   append([][24][2]int64(nil), c.hourHOFs...),
		hourActive: append([][24][2]int32(nil), c.hourActive...),
	}
}

// Merge folds per-day profiles in. The distinct-sector counts are
// per-day finals (not summable within a day), so the snapshot must not
// cover a day the collector already holds data for — guaranteed by the
// merge-into-empty discipline; the counts add correctly because the
// receiving entries are zero.
func (c *temporalCollector) Merge(st CollectorState) error {
	s, ok := st.(*temporalState)
	if !ok {
		return fmt.Errorf("analysis: merging %T into temporal collector", st)
	}
	if s.days > c.env.days {
		return fmt.Errorf("analysis: temporal state covers %d days, collector only %d", s.days, c.env.days)
	}
	for day := 0; day < s.days; day++ {
		for b := 0; b < mobility.BinsPerDay; b++ {
			for a := 0; a < 2; a++ {
				c.binHOs[day][b][a] += s.binHOs[day][b][a]
				c.binActive[day][b][a] += s.binActive[day][b][a]
			}
		}
		for h := 0; h < 24; h++ {
			for a := 0; a < 2; a++ {
				c.hourHOFs[day][h][a] += s.hourHOFs[day][h][a]
				c.hourActive[day][h][a] += s.hourActive[day][h][a]
			}
		}
	}
	return nil
}

// --- districts ----------------------------------------------------------

type districtsState struct {
	districtHOs   []int64
	districtFails []int64
	districtType  [][ho.NumTypes]int64
}

func (s *districtsState) Need() Need { return NeedDistricts }

func (s *districtsState) MarshalBinary() ([]byte, error) {
	e := &enc{}
	header(e, NeedDistricts)
	e.i64s(s.districtHOs)
	e.i64s(s.districtFails)
	e.u32(uint32(len(s.districtType)))
	for i := range s.districtType {
		for t := 0; t < nTypes; t++ {
			e.i64(s.districtType[i][t])
		}
	}
	return e.b, nil
}

func (s *districtsState) UnmarshalBinary(data []byte) error {
	d := &dec{b: data}
	if err := checkHeader(d, NeedDistricts); err != nil {
		return err
	}
	s.districtHOs = d.i64s()
	s.districtFails = d.i64s()
	n := d.length(8 * nTypes)
	if d.err != nil {
		return d.err
	}
	s.districtType = make([][ho.NumTypes]int64, n)
	for i := 0; i < n; i++ {
		for t := 0; t < nTypes; t++ {
			s.districtType[i][t] = d.i64()
		}
	}
	return d.err
}

func (c *districtsCollector) Snapshot() CollectorState {
	return &districtsState{
		districtHOs:   append([]int64(nil), c.districtHOs...),
		districtFails: append([]int64(nil), c.districtFails...),
		districtType:  append([][ho.NumTypes]int64(nil), c.districtType...),
	}
}

func (c *districtsCollector) Merge(st CollectorState) error {
	s, ok := st.(*districtsState)
	if !ok {
		return fmt.Errorf("analysis: merging %T into districts collector", st)
	}
	if len(s.districtHOs) != c.env.nDistricts {
		return fmt.Errorf("analysis: districts state has %d districts, dataset %d", len(s.districtHOs), c.env.nDistricts)
	}
	for i := range s.districtHOs {
		c.districtHOs[i] += s.districtHOs[i]
		c.districtFails[i] += s.districtFails[i]
		for t := 0; t < nTypes; t++ {
			c.districtType[i][t] += s.districtType[i][t]
		}
	}
	return nil
}

// --- UE-day -------------------------------------------------------------

type uedayState struct {
	ueHOs   []int32
	ueFails []int32
	ueDay   []UEDayMetric
}

func (s *uedayState) Need() Need { return NeedUEDay }

// ueDayMetricBytes is the fixed row width of one encoded UEDayMetric.
const ueDayMetricBytes = 4 + 4 + 4 + 4 + 4 + 4 + 4

func (s *uedayState) MarshalBinary() ([]byte, error) {
	e := &enc{}
	header(e, NeedUEDay)
	e.i32s(s.ueHOs)
	e.i32s(s.ueFails)
	e.u32(uint32(len(s.ueDay)))
	for i := range s.ueDay {
		m := &s.ueDay[i]
		e.u32(uint32(m.UE))
		e.i32(m.Day)
		e.i32(m.Sectors)
		e.i32(m.HOs)
		e.i32(m.Fails)
		e.f32(m.GyrationKm)
		e.i32(m.NightSite)
	}
	return e.b, nil
}

func (s *uedayState) UnmarshalBinary(data []byte) error {
	d := &dec{b: data}
	if err := checkHeader(d, NeedUEDay); err != nil {
		return err
	}
	s.ueHOs = d.i32s()
	s.ueFails = d.i32s()
	n := d.length(ueDayMetricBytes)
	if d.err != nil {
		return d.err
	}
	s.ueDay = make([]UEDayMetric, n)
	for i := range s.ueDay {
		m := &s.ueDay[i]
		m.UE = trace.UEID(d.u32())
		m.Day = d.i32()
		m.Sectors = d.i32()
		m.HOs = d.i32()
		m.Fails = d.i32()
		m.GyrationKm = d.f32()
		m.NightSite = d.i32()
	}
	return d.err
}

func (c *uedayCollector) Snapshot() CollectorState {
	c.flushDay()
	c.curDay = -1
	return &uedayState{
		ueHOs:   append([]int32(nil), c.ueHOs...),
		ueFails: append([]int32(nil), c.ueFails...),
		ueDay:   append([]UEDayMetric(nil), c.ueDay...),
	}
}

func (c *uedayCollector) Merge(st CollectorState) error {
	s, ok := st.(*uedayState)
	if !ok {
		return fmt.Errorf("analysis: merging %T into ueday collector", st)
	}
	if len(s.ueHOs) != c.env.nUEs {
		return fmt.Errorf("analysis: ueday state has %d UEs, dataset %d", len(s.ueHOs), c.env.nUEs)
	}
	c.flushDay()
	c.curDay = -1
	if len(c.ueDay) > 0 && len(s.ueDay) > 0 && s.ueDay[0].Day <= c.ueDay[len(c.ueDay)-1].Day {
		return fmt.Errorf("analysis: ueday state starting day %d overlaps collector rows through day %d",
			s.ueDay[0].Day, c.ueDay[len(c.ueDay)-1].Day)
	}
	for i := range s.ueHOs {
		c.ueHOs[i] += s.ueHOs[i]
		c.ueFails[i] += s.ueFails[i]
	}
	c.ueDay = append(c.ueDay, s.ueDay...)
	return nil
}

// --- sector-day ---------------------------------------------------------

type sectordayState struct {
	rows []SectorDayRow
}

func (s *sectordayState) Need() Need { return NeedSectorDay }

// sectorDayRowBytes is the fixed row width of one encoded SectorDayRow.
// Only the measured fields travel; the Table 3 covariates (region, area,
// vendor, district population) are pure functions of the sector and are
// re-derived from the world model on Merge — the row set is the largest
// checkpoint payload, and every byte here is paid on each resume.
const sectorDayRowBytes = 4 + 2 + 1 + 4 + 4 + 4

func (s *sectordayState) MarshalBinary() ([]byte, error) {
	e := &enc{}
	header(e, NeedSectorDay)
	e.u32(uint32(len(s.rows)))
	for i := range s.rows {
		r := &s.rows[i]
		e.u32(uint32(r.Sector))
		e.u16(uint16(r.Day))
		e.u8(uint8(r.Type))
		e.i32(r.HOs)
		e.i32(r.Fails)
		e.i32(r.TotalDayHOs)
	}
	return e.b, nil
}

func (s *sectordayState) UnmarshalBinary(data []byte) error {
	d := &dec{b: data}
	if err := checkHeader(d, NeedSectorDay); err != nil {
		return err
	}
	n := d.length(sectorDayRowBytes)
	if d.err != nil {
		return d.err
	}
	s.rows = make([]SectorDayRow, n)
	for i := range s.rows {
		r := &s.rows[i]
		r.Sector = topology.SectorID(d.u32())
		r.Day = int16(d.u16())
		r.Type = ho.Type(d.u8())
		r.HOs = d.i32()
		r.Fails = d.i32()
		r.TotalDayHOs = d.i32()
	}
	return d.err
}

func (c *sectordayCollector) Snapshot() CollectorState {
	c.flushDay()
	c.curDay = -1
	return &sectordayState{rows: append([]SectorDayRow(nil), c.sectorDay...)}
}

func (c *sectordayCollector) Merge(st CollectorState) error {
	s, ok := st.(*sectordayState)
	if !ok {
		return fmt.Errorf("analysis: merging %T into sectorday collector", st)
	}
	c.flushDay()
	c.curDay = -1
	if len(c.sectorDay) > 0 && len(s.rows) > 0 && s.rows[0].Day <= c.sectorDay[len(c.sectorDay)-1].Day {
		return fmt.Errorf("analysis: sectorday state starting day %d overlaps collector rows through day %d",
			s.rows[0].Day, c.sectorDay[len(c.sectorDay)-1].Day)
	}
	base := len(c.sectorDay)
	c.sectorDay = append(c.sectorDay, s.rows...)
	// Resolve the sector-derived covariates from the world model — the
	// same lookups flushDay performs — so unmarshaled rows (which do not
	// carry them) and snapshot rows end up identical.
	for i := base; i < len(c.sectorDay); i++ {
		r := &c.sectorDay[i]
		if int(r.Sector) >= c.env.nSectors {
			return fmt.Errorf("analysis: sectorday state row references sector %d of %d", r.Sector, c.env.nSectors)
		}
		sector := c.env.ds.Network.Sector(r.Sector)
		district := c.env.ds.Country.District(sector.DistrictID)
		r.Region = sector.Region
		r.Area = sector.Area
		r.Vendor = sector.Vendor
		r.DistrictPop = int32(district.Population)
	}
	return nil
}
