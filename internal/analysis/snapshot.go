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

// Collector encoding: every scan-state unit has one persisted form, a
// versioned, deterministic binary encoding of its own merged fields.
// Analyzer.Checkpoint writes it, and ResumeAnalyzer restores it into
// fresh collectors. The encoding is fixed-field-order little-endian
// (bulk fixed-width rows for the large row sets), so encoding the same
// state twice yields the same bytes — the property the round-trip tests
// pin down.

// snapshotVersion tags every encoded collector state; bump on any
// encoding change. Version 2 added the ping-pong state, which version 1
// checkpoints carried in a section of their own. Version 3 encodes one
// ping-pong automaton per UE instead of one per UE and window, and drops
// the types state's stored-bytes count, which no experiment read.
// Version 4 encodes each duration class as (code, count) pairs in code
// order in place of a bottom-k sample of (priority, value) pairs.
const snapshotVersion = 4

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

// encodeState appends one unit's state: a header of the encoding
// version and the unit, then the collector's own fields.
func encodeState(e *enc, need Need, col collector) {
	e.u8(snapshotVersion)
	e.u32(uint32(need))
	col.encode(e)
}

// restoreState fills a fresh collector from one unit's state encoding,
// which must be consumed exactly.
func restoreState(col collector, need Need, b []byte) error {
	d := &dec{b: b}
	if v := d.u8(); d.err == nil && v != snapshotVersion {
		return fmt.Errorf("analysis: collector state version %d, want %d", v, snapshotVersion)
	}
	if got := Need(d.u32()); d.err == nil && got != need {
		return fmt.Errorf("analysis: collector state for need %b, want %b", got, need)
	}
	if d.err != nil {
		return d.err
	}
	if err := col.restore(d); err != nil {
		return err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("analysis: %d trailing bytes in collector state", len(d.b))
	}
	return nil
}

// checkDays bounds a state's day count by the study's.
func checkDays(d *dec, unit string, days, studyDays int) error {
	if d.err == nil && days > studyDays {
		return fmt.Errorf("analysis: %s state covers %d days, collector only %d", unit, days, studyDays)
	}
	return d.err
}

const nTypes = int(ho.NumTypes)

// --- types --------------------------------------------------------------

func (c *typesCollector) encode(e *enc) {
	c.grow(c.env.days)
	e.u32(uint32(c.env.days))
	e.i64(c.totalHOs)
	e.i64(c.totalFails)
	for t := 0; t < nTypes; t++ {
		e.i64(c.typeCounts[t])
		e.i64(c.typeFails[t])
		for d := 0; d < 3; d++ {
			e.i64(c.typeDevCounts[t][d])
		}
		for v := 0; v < 4; v++ {
			e.i64(c.vendorByType[t][v])
		}
	}
	for day := 0; day < c.env.days; day++ {
		for t := 0; t < nTypes; t++ {
			e.i64(c.perDayFails[day][t])
			for d := 0; d < 3; d++ {
				e.i64(c.perDayTypeDev[day][t][d])
			}
		}
	}
}

func (c *typesCollector) restore(d *dec) error {
	days := int(d.u32())
	if err := checkDays(d, "types", days, c.env.days); err != nil {
		return err
	}
	c.totalHOs = d.i64()
	c.totalFails = d.i64()
	for t := 0; t < nTypes; t++ {
		c.typeCounts[t] = d.i64()
		c.typeFails[t] = d.i64()
		for dv := 0; dv < 3; dv++ {
			c.typeDevCounts[t][dv] = d.i64()
		}
		for v := 0; v < 4; v++ {
			c.vendorByType[t][v] = d.i64()
		}
	}
	c.grow(days)
	for day := 0; day < days; day++ {
		for t := 0; t < nTypes; t++ {
			c.perDayFails[day][t] = d.i64()
			for dv := 0; dv < 3; dv++ {
				c.perDayTypeDev[day][t][dv] = d.i64()
			}
		}
	}
	return d.err
}

// --- durations ----------------------------------------------------------

// encode writes the histogram as its (code, count) pairs in code order.
func (h *durHist) encode(e *enc) {
	at := len(e.b)
	e.u32(0)
	var k uint32
	h.each(func(code uint16, n int64) {
		e.u16(code)
		e.i64(n)
		k++
	})
	binary.LittleEndian.PutUint32(e.b[at:], k)
}

// durPairBytes is the width of one encoded (code, count) pair.
const durPairBytes = 2 + 8

// restore fills an empty histogram from encode's bytes. The pairs must
// be what encode writes: codes an encoder writes (trace.DurationCode),
// strictly ascending, each with a positive count, and counts whose total
// fits an int64.
func (h *durHist) restore(d *dec) {
	k := d.length(durPairBytes)
	prev, total := -1, int64(0)
	for i := 0; i < k && d.err == nil; i++ {
		code, n := d.u16(), d.i64()
		if d.err != nil {
			return
		}
		switch c, _ := trace.DurationCode(trace.DurationValue(code)); {
		case c != code:
			d.err = fmt.Errorf("analysis: duration state holds code %#04x, which no encoder writes", code)
		case int(code) <= prev:
			d.err = fmt.Errorf("analysis: duration state code %#04x does not follow %#04x", code, prev)
		case n <= 0:
			d.err = fmt.Errorf("analysis: duration state counts %d values of code %#04x", n, code)
		case n > math.MaxInt64-total:
			d.err = fmt.Errorf("analysis: duration state counts more than %d values", int64(math.MaxInt64))
		default:
			*h.count(code) = n
			prev, total = int(code), total+n
		}
	}
}

func (c *durationsCollector) encode(e *enc) {
	for i := range c.durSuccess {
		c.durSuccess[i].encode(e)
	}
	for i := range c.durCause {
		c.durCause[i].encode(e)
	}
}

func (c *durationsCollector) restore(d *dec) error {
	for i := range c.durSuccess {
		c.durSuccess[i].restore(d)
	}
	for i := range c.durCause {
		c.durCause[i].restore(d)
	}
	return d.err
}

// --- causes -------------------------------------------------------------

func (c *causesCollector) encode(e *enc) {
	c.perDayCauseType = growDays(c.perDayCauseType, c.env.days)
	e.u32(uint32(c.env.days))
	for t := 0; t < nTypes; t++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			e.i64(c.causeType[t][ci])
		}
	}
	for d := 0; d < 3; d++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			e.i64(c.causeByDev[d][ci])
		}
	}
	for a := 0; a < 2; a++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			e.i64(c.causeByArea[a][ci])
		}
	}
	for m := 0; m < nTopMfr; m++ {
		for a := 0; a < 2; a++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				e.i64(c.causeByMfr[m][a][ci])
			}
		}
	}
	for day := 0; day < c.env.days; day++ {
		for t := 0; t < nTypes; t++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				e.i64(c.perDayCauseType[day][t][ci])
			}
		}
	}
}

func (c *causesCollector) restore(d *dec) error {
	days := int(d.u32())
	if err := checkDays(d, "causes", days, c.env.days); err != nil {
		return err
	}
	for t := 0; t < nTypes; t++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			c.causeType[t][ci] = d.i64()
		}
	}
	for dv := 0; dv < 3; dv++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			c.causeByDev[dv][ci] = d.i64()
		}
	}
	for a := 0; a < 2; a++ {
		for ci := 0; ci < nCauseIdx; ci++ {
			c.causeByArea[a][ci] = d.i64()
		}
	}
	for m := 0; m < nTopMfr; m++ {
		for a := 0; a < 2; a++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				c.causeByMfr[m][a][ci] = d.i64()
			}
		}
	}
	c.perDayCauseType = growDays(c.perDayCauseType, days)
	for day := 0; day < days; day++ {
		for t := 0; t < nTypes; t++ {
			for ci := 0; ci < nCauseIdx; ci++ {
				c.perDayCauseType[day][t][ci] = d.i64()
			}
		}
	}
	return d.err
}

// --- temporal -----------------------------------------------------------

func (c *temporalCollector) encode(e *enc) {
	c.grow(c.env.days)
	e.u32(uint32(c.env.days))
	for day := 0; day < c.env.days; day++ {
		for b := 0; b < mobility.BinsPerDay; b++ {
			for a := 0; a < 2; a++ {
				e.i64(c.binHOs[day][b][a])
				e.i32(c.binActive[day][b][a])
			}
		}
		for h := 0; h < 24; h++ {
			for a := 0; a < 2; a++ {
				e.i64(c.hourHOFs[day][h][a])
				e.i32(c.hourActive[day][h][a])
			}
		}
	}
}

func (c *temporalCollector) restore(d *dec) error {
	days := int(d.u32())
	if err := checkDays(d, "temporal", days, c.env.days); err != nil {
		return err
	}
	c.grow(days)
	for day := 0; day < days; day++ {
		for b := 0; b < mobility.BinsPerDay; b++ {
			for a := 0; a < 2; a++ {
				c.binHOs[day][b][a] = d.i64()
				c.binActive[day][b][a] = d.i32()
			}
		}
		for h := 0; h < 24; h++ {
			for a := 0; a < 2; a++ {
				c.hourHOFs[day][h][a] = d.i64()
				c.hourActive[day][h][a] = d.i32()
			}
		}
	}
	return d.err
}

// --- districts ----------------------------------------------------------

func (c *districtsCollector) encode(e *enc) {
	e.i64s(c.districtHOs)
	e.i64s(c.districtFails)
	e.u32(uint32(len(c.districtType)))
	for i := range c.districtType {
		for t := 0; t < nTypes; t++ {
			e.i64(c.districtType[i][t])
		}
	}
}

func (c *districtsCollector) restore(d *dec) error {
	hos := d.i64s()
	fails := d.i64s()
	n := d.length(8 * nTypes)
	if d.err != nil {
		return d.err
	}
	if nd := c.env.nDistricts; len(hos) != nd || len(fails) != nd || n != nd {
		return fmt.Errorf("analysis: districts state has %d/%d/%d districts, dataset %d", len(hos), len(fails), n, nd)
	}
	c.districtHOs, c.districtFails = hos, fails
	for i := range c.districtType {
		for t := 0; t < nTypes; t++ {
			c.districtType[i][t] = d.i64()
		}
	}
	return d.err
}

// --- UE-day -------------------------------------------------------------

// ueDayMetricBytes is the fixed row width of one encoded UEDayMetric.
const ueDayMetricBytes = 4 + 4 + 4 + 4 + 4 + 4 + 4

func (c *uedayCollector) encode(e *enc) {
	e.i32s(c.ueHOs)
	e.i32s(c.ueFails)
	e.u32(uint32(len(c.ueDay)))
	for i := range c.ueDay {
		m := &c.ueDay[i]
		e.u32(uint32(m.UE))
		e.i32(m.Day)
		e.i32(m.Sectors)
		e.i32(m.HOs)
		e.i32(m.Fails)
		e.f32(m.GyrationKm)
		e.i32(m.NightSite)
	}
}

func (c *uedayCollector) restore(d *dec) error {
	hos := d.i32s()
	fails := d.i32s()
	n := d.length(ueDayMetricBytes)
	if d.err != nil {
		return d.err
	}
	if len(hos) != c.env.nUEs || len(fails) != c.env.nUEs {
		return fmt.Errorf("analysis: ueday state has %d/%d UEs, dataset %d", len(hos), len(fails), c.env.nUEs)
	}
	c.ueHOs, c.ueFails = hos, fails
	c.ueDay = make([]UEDayMetric, n)
	for i := range c.ueDay {
		m := &c.ueDay[i]
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

// --- sector-day ---------------------------------------------------------

// sectorDayRowBytes is the fixed row width of one encoded SectorDayRow.
// Only the measured fields travel; the Table 3 covariates (region, area,
// vendor, district population) are pure functions of the sector and are
// re-derived from the world model on restore — the row set is the
// largest checkpoint payload, and every byte here is paid on each resume.
const sectorDayRowBytes = 4 + 2 + 1 + 4 + 4 + 4

func (c *sectordayCollector) encode(e *enc) {
	e.u32(uint32(len(c.sectorDay)))
	for i := range c.sectorDay {
		r := &c.sectorDay[i]
		e.u32(uint32(r.Sector))
		e.u16(uint16(r.Day))
		e.u8(uint8(r.Type))
		e.i32(r.HOs)
		e.i32(r.Fails)
		e.i32(r.TotalDayHOs)
	}
}

func (c *sectordayCollector) restore(d *dec) error {
	n := d.length(sectorDayRowBytes)
	if d.err != nil {
		return d.err
	}
	c.sectorDay = make([]SectorDayRow, n)
	for i := range c.sectorDay {
		r := &c.sectorDay[i]
		r.Sector = topology.SectorID(d.u32())
		r.Day = int16(d.u16())
		r.Type = ho.Type(d.u8())
		r.HOs = d.i32()
		r.Fails = d.i32()
		r.TotalDayHOs = d.i32()
		if int(r.Sector) >= c.env.nSectors {
			return fmt.Errorf("analysis: sectorday state row references sector %d of %d", r.Sector, c.env.nSectors)
		}
		// The same lookups flushDay performs.
		sector := c.env.ds.Network.Sector(r.Sector)
		r.Region = sector.Region
		r.Area = sector.Area
		r.Vendor = sector.Vendor
		r.DistrictPop = int32(c.env.ds.Country.District(sector.DistrictID).Population)
	}
	return d.err
}
