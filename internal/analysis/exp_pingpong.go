package analysis

import (
	"context"
	"fmt"
	"slices"
	"time"

	"telcolens/internal/report"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// Ping-pong handover analysis. The paper positions itself against the two
// prior operator-side studies (Feher et al., Zidic et al., §7), both of
// which analyze ping-pong (PP) handovers: a UE handed from sector A to B
// and back to A within a short predefined window. This extension
// experiment brings that analysis to the same countrywide dataset — the
// "future work" direction the related-work section implies.

func init() {
	register("pingpong", "Ping-pong handover analysis (extension, §7 related work)", "§7 (Feher'12, Zidic'23)", NeedPingPong, runPingPong)
}

// PingPongStats summarizes ping-pong behaviour for one detection window.
type PingPongStats struct {
	Window    time.Duration
	HOs       int64 // successful handovers examined
	PingPongs int64 // bounce-backs within the window
	ByArea    [2]int64
	AreaHOs   [2]int64
}

// Rate returns the share of handovers that are ping-pongs.
func (p *PingPongStats) Rate() float64 {
	if p.HOs == 0 {
		return 0
	}
	return float64(p.PingPongs) / float64(p.HOs)
}

// StandardPingPongWindows are the detection windows the pingpong
// experiment renders. The NeedPingPong collector runs the automata for
// exactly this window set inside the fused scan, so a refresh after a
// day lands feeds only the new partitions through them.
var StandardPingPongWindows = []time.Duration{2 * time.Second, 10 * time.Second, time.Minute, 5 * time.Minute}

// standardWinMs is StandardPingPongWindows in milliseconds.
var standardWinMs = func() []int64 {
	ms := make([]int64, len(StandardPingPongWindows))
	for w, win := range StandardPingPongWindows {
		ms[w] = win.Milliseconds()
	}
	return ms
}()

// ppLast is a UE's last successful handover. With the mask of windows
// still open it is the UE's bounce automaton for every window at once:
// a per-window automaton is, after each handover, either closed or
// holding that same handover, so one copy of it and one bit per window
// say everything the per-window automata would.
type ppLast struct {
	src, dst uint32
	ts       int64
}

// ppStep feeds one successful handover src→dst at ts to the automaton
// (last, open) over the standard windows and returns the mask of windows
// in which it bounced back within the window, closing a ping-pong. A
// closed pair does not seed a new one, so those windows close; every
// other window opens on the handover, which becomes last.
func ppStep(last *ppLast, open *uint8, src, dst uint32, ts int64) (closed uint8) {
	if *open != 0 && src == last.dst && dst == last.src {
		for w, win := range standardWinMs {
			if *open>>w&1 != 0 && ts-last.ts <= win {
				closed |= 1 << w
			}
		}
	}
	*last = ppLast{src: src, dst: dst, ts: ts}
	*open = (uint8(1)<<len(standardWinMs) - 1) &^ closed
	return closed
}

// --- ping-pong collector ---------------------------------------------------

// pingpongCollector runs one automaton per UE for the standard windows
// inside the fused scan. The per-UE bounce state crosses day
// boundaries, so it advances only on the merge, in canonical partition
// order — the order that preserves every UE's record sequence — which
// makes the state after partition k a pure function of partitions
// 0..k, and the counts independent of sharding, parallelism and
// refresh splits.
type pingpongCollector struct {
	env *scanEnv

	// last and open are every UE's automaton (ppStep), indexed by UE.
	last      []ppLast
	open      []uint8
	hos       int64
	areaHOs   [2]int64
	pingPongs []int64 // per standard window
	byArea    [][2]int64

	shards shardFree[pingpongShard]
}

func newPingPongCollector(env *scanEnv) *pingpongCollector {
	return &pingpongCollector{
		env:       env,
		last:      make([]ppLast, env.nUEs),
		open:      make([]uint8, env.nUEs),
		pingPongs: make([]int64, len(standardWinMs)),
		byArea:    make([][2]int64, len(standardWinMs)),
	}
}

// ppHO is one successful handover as the automata consume it.
type ppHO struct {
	ts       int64
	ue       trace.UEID
	src, dst topology.SectorID
}

// pingpongShard buffers its partition's successful handovers in storage
// order; the buffer is recycled with the state.
type pingpongShard struct {
	hos []ppHO
}

func (c *pingpongCollector) NewShardState(day, shard int) trace.ShardState {
	if s := c.shards.get(); s != nil {
		return s
	}
	return &pingpongShard{}
}

// ObserveColumns keeps the successful handovers: only they advance the
// serving sector, matching the PP definition of the prior studies.
func (s *pingpongShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	n := cb.Len()
	for i := 0; i < n; i++ {
		if cb.Results[i] == trace.Success {
			s.hos = append(s.hos, ppHO{ts: cb.Timestamps[i], ue: cb.UEs[i], src: cb.Sources[i], dst: cb.Targets[i]})
		}
	}
	return nil
}

// pingpongShard reads the UE, both sectors and the result bit.
func (c *pingpongCollector) columns() trace.ColumnSet {
	return trace.ColUE | trace.ColSectors | trace.ColOutcome
}

func (c *pingpongCollector) MergeShard(st trace.ShardState) error {
	s := st.(*pingpongShard)
	for i := range s.hos {
		h := &s.hos[i]
		area := c.env.sectors[h.src].areaIdx
		c.hos++
		c.areaHOs[area]++
		closed := ppStep(&c.last[h.ue], &c.open[h.ue], uint32(h.src), uint32(h.dst), h.ts)
		for w := range c.pingPongs {
			if closed>>w&1 != 0 {
				c.pingPongs[w]++
				c.byArea[w][area]++
			}
		}
	}
	s.hos = s.hos[:0]
	c.shards.put(s)
	return nil
}

func (c *pingpongCollector) finalize(out *scanState) error {
	c.shards.drop()
	out.pingPong = make([]*PingPongStats, len(StandardPingPongWindows))
	for w, win := range StandardPingPongWindows {
		out.pingPong[w] = &PingPongStats{
			Window:    win,
			HOs:       c.hos,
			PingPongs: c.pingPongs[w],
			ByArea:    c.byArea[w],
			AreaHOs:   c.areaHOs,
		}
	}
	return nil
}

// ppStateBytes is the encoded width of one UE's automaton: src, dst, ts
// and the open mask.
const ppStateBytes = 4 + 4 + 8 + 1

// encode writes the counters and every UE's automaton, so a resumed
// analyzer continues every UE's bounce state.
func (c *pingpongCollector) encode(e *enc) {
	e.i64s(standardWinMs)
	e.i64(c.hos)
	e.i64(c.areaHOs[0])
	e.i64(c.areaHOs[1])
	e.i64s(c.pingPongs)
	e.u32(uint32(len(c.byArea)))
	for _, ba := range c.byArea {
		e.i64(ba[0])
		e.i64(ba[1])
	}
	e.u32(uint32(len(c.last)))
	for i := range c.last {
		l := &c.last[i]
		e.u32(l.src)
		e.u32(l.dst)
		e.i64(l.ts)
		e.u8(c.open[i])
	}
}

// restore replaces the fresh collector's state with the encoded one.
// Automata cannot be summed, so there is nothing to merge into. The
// collector only ever runs the standard window set; counts encoded
// under any other set (a build whose standard windows differed) must
// not be relabeled with today's windows.
func (c *pingpongCollector) restore(d *dec) error {
	winMs := d.i64s()
	hos, area0, area1 := d.i64(), d.i64(), d.i64()
	pingPongs := d.i64s()
	nBA := d.length(16)
	if d.err != nil {
		return d.err
	}
	nW := len(standardWinMs)
	if !slices.Equal(winMs, standardWinMs) {
		return fmt.Errorf("analysis: ping-pong state windows %v ms, want %v", winMs, StandardPingPongWindows)
	}
	if len(pingPongs) != nW || nBA != nW {
		return fmt.Errorf("analysis: ping-pong state has %d/%d window counts, want %d", len(pingPongs), nBA, nW)
	}
	byArea := make([][2]int64, nBA)
	for i := range byArea {
		byArea[i][0] = d.i64()
		byArea[i][1] = d.i64()
	}
	n := d.length(ppStateBytes)
	if d.err != nil {
		return d.err
	}
	if n != c.env.nUEs {
		return fmt.Errorf("analysis: ping-pong state has %d automata for %d UEs", n, c.env.nUEs)
	}
	last, open := make([]ppLast, n), make([]uint8, n)
	for i := range last {
		last[i] = ppLast{src: d.u32(), dst: d.u32(), ts: d.i64()}
		open[i] = d.u8()
		if open[i]>>nW != 0 {
			return fmt.Errorf("analysis: ping-pong state of UE %d opens windows %b of %d", i, open[i], nW)
		}
	}
	if d.err != nil {
		return d.err
	}
	c.hos, c.areaHOs = hos, [2]int64{area0, area1}
	c.pingPongs, c.byArea = pingPongs, byArea
	c.last, c.open = last, open
	return nil
}

func runPingPong(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	tbl := report.Table{
		Title:   "Ping-pong handovers (A→B→A within window)",
		Columns: []string{"Window", "HOs", "Ping-pongs", "Rate", "Urban rate", "Rural rate"},
	}
	st, err := a.Require(ctx, NeedPingPong)
	if err != nil {
		return err
	}
	for _, s := range st.pingPong {
		rate := func(area int) string {
			if s.AreaHOs[area] == 0 {
				return "-"
			}
			return report.FormatPct(float64(s.ByArea[area]) / float64(s.AreaHOs[area]))
		}
		tbl.Rows = append(tbl.Rows, []string{
			s.Window.String(),
			fmt.Sprintf("%d", s.HOs),
			fmt.Sprintf("%d", s.PingPongs),
			report.FormatPct(s.Rate()),
			rate(1),
			rate(0),
		})
	}
	art.AddTable(tbl)
	art.AddNote("Extension beyond the paper: prior operator-side studies (Zidic et al. 2023) report PP rates of a few percent with minute-scale windows; the PP rate must grow monotonically with the window.")
	return nil
}
