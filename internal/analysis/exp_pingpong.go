package analysis

import (
	"context"
	"fmt"
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

// pingPongState is one UE's bounce automaton for one window.
type pingPongState struct {
	src, dst uint32
	ts       int64
	valid    bool
}

// step feeds the automaton one successful handover src→dst at ts and
// reports whether it bounced back within winMs, closing a ping-pong.
func (st *pingPongState) step(src, dst uint32, ts, winMs int64) bool {
	if st.valid && src == st.dst && dst == st.src && ts-st.ts <= winMs {
		// A PP closes the pair; the bounce-back does not seed a new one.
		st.valid = false
		return true
	}
	*st = pingPongState{src: src, dst: dst, ts: ts, valid: true}
	return false
}

// StandardPingPongWindows are the detection windows the pingpong
// experiment renders. The NeedPingPong collector runs the automata for
// exactly this window set inside the fused scan, so a refresh after a
// day lands feeds only the new partitions through them.
var StandardPingPongWindows = []time.Duration{2 * time.Second, 10 * time.Second, time.Minute, 5 * time.Minute}

// ppTracker is the resumable ping-pong engine: the per-UE per-window
// bounce automata plus the counters. Because the automata advance
// strictly in canonical partition order and a UE's whole record sequence
// is preserved by that order, the state after partition k is a pure
// function of partitions 0..k — appending partitions continues the
// sequence exactly, which makes incremental counts identical to a cold
// pass.
type ppTracker struct {
	winMs     []int64
	states    []pingPongState // nUEs × len(winMs), window-major per UE
	hos       int64
	areaHOs   [2]int64
	pingPongs []int64
	byArea    [][2]int64
}

func newPPTracker(nUEs int, windows []time.Duration) *ppTracker {
	t := &ppTracker{
		winMs:     make([]int64, len(windows)),
		states:    make([]pingPongState, nUEs*len(windows)),
		pingPongs: make([]int64, len(windows)),
		byArea:    make([][2]int64, len(windows)),
	}
	for w, win := range windows {
		t.winMs[w] = win.Milliseconds()
	}
	return t
}

func (t *ppTracker) observe(sectors []sectorMeta, ts int64, ue trace.UEID, src, dst topology.SectorID, res trace.Result) {
	if res != trace.Success {
		return
	}
	t.hos++
	areaIdx := sectors[src].areaIdx
	t.areaHOs[areaIdx]++
	nW := len(t.winMs)
	base := int(ue) * nW
	for w := 0; w < nW; w++ {
		if t.states[base+w].step(uint32(src), uint32(dst), ts, t.winMs[w]) {
			t.pingPongs[w]++
			t.byArea[w][areaIdx]++
		}
	}
}

// stats renders the tracker's counters for the given window set.
func (t *ppTracker) stats(windows []time.Duration) []*PingPongStats {
	out := make([]*PingPongStats, len(windows))
	for w, win := range windows {
		out[w] = &PingPongStats{
			Window:    win,
			HOs:       t.hos,
			PingPongs: t.pingPongs[w],
			ByArea:    t.byArea[w],
			AreaHOs:   t.areaHOs,
		}
	}
	return out
}

// encode/decodePPTracker serialize the tracker for checkpoints.
func (t *ppTracker) encode(e *enc) {
	e.i64s(t.winMs)
	e.i64(t.hos)
	e.i64(t.areaHOs[0])
	e.i64(t.areaHOs[1])
	e.i64s(t.pingPongs)
	e.u32(uint32(len(t.byArea)))
	for _, ba := range t.byArea {
		e.i64(ba[0])
		e.i64(ba[1])
	}
	e.u32(uint32(len(t.states)))
	for i := range t.states {
		st := &t.states[i]
		e.u32(st.src)
		e.u32(st.dst)
		e.i64(st.ts)
		if st.valid {
			e.u8(1)
		} else {
			e.u8(0)
		}
	}
}

func decodePPTracker(d *dec) (*ppTracker, error) {
	t := &ppTracker{}
	t.winMs = d.i64s()
	t.hos = d.i64()
	t.areaHOs[0] = d.i64()
	t.areaHOs[1] = d.i64()
	t.pingPongs = d.i64s()
	nBA := d.length(16)
	if d.err != nil {
		return nil, d.err
	}
	t.byArea = make([][2]int64, nBA)
	for i := range t.byArea {
		t.byArea[i][0] = d.i64()
		t.byArea[i][1] = d.i64()
	}
	nStates := d.length(17)
	if d.err != nil {
		return nil, d.err
	}
	t.states = make([]pingPongState, nStates)
	for i := range t.states {
		st := &t.states[i]
		st.src = d.u32()
		st.dst = d.u32()
		st.ts = d.i64()
		st.valid = d.u8() == 1
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(t.winMs) == 0 || nStates%len(t.winMs) != 0 || len(t.pingPongs) != len(t.winMs) || len(t.byArea) != len(t.winMs) {
		return nil, fmt.Errorf("analysis: ping-pong tracker shape mismatch (%d states, %d windows)", nStates, len(t.winMs))
	}
	// The tracker is only ever maintained for the standard window set;
	// counts restored under any other set (a build whose standard windows
	// differed) must not be relabeled with today's windows.
	if len(t.winMs) != len(StandardPingPongWindows) {
		return nil, fmt.Errorf("analysis: ping-pong tracker has %d windows, want %d", len(t.winMs), len(StandardPingPongWindows))
	}
	for i, win := range StandardPingPongWindows {
		if t.winMs[i] != win.Milliseconds() {
			return nil, fmt.Errorf("analysis: ping-pong tracker window %d is %dms, want %v", i, t.winMs[i], win)
		}
	}
	return t, nil
}

// --- ping-pong collector ---------------------------------------------------

// pingpongCollector runs the standard-window automata inside the fused
// scan. The per-UE bounce state crosses day boundaries, so it advances
// only on the merge, in canonical partition order — the order that
// preserves every UE's record sequence — which makes the counts
// independent of sharding, parallelism and refresh splits.
type pingpongCollector struct {
	env *scanEnv
	t   *ppTracker

	shards shardFree[pingpongShard]
}

func newPingPongCollector(env *scanEnv) *pingpongCollector {
	return &pingpongCollector{env: env, t: newPPTracker(env.nUEs, StandardPingPongWindows)}
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
		c.t.observe(c.env.sectors, h.ts, h.ue, h.src, h.dst, trace.Success)
	}
	s.hos = s.hos[:0]
	c.shards.put(s)
	return nil
}

func (c *pingpongCollector) finalize(out *scanState) error {
	c.shards.drop()
	out.pingPong = c.t.stats(StandardPingPongWindows)
	return nil
}

// encode writes the whole tracker, automata included, so a resumed
// analyzer continues every UE's bounce state.
func (c *pingpongCollector) encode(e *enc) {
	c.t.encode(e)
}

// restore replaces the fresh collector's tracker with the encoded one.
// Automata cannot be summed, so there is nothing to merge into.
func (c *pingpongCollector) restore(d *dec) error {
	t, err := decodePPTracker(d)
	if err != nil {
		return err
	}
	if len(t.states) != c.env.nUEs*len(t.winMs) {
		return fmt.Errorf("analysis: ping-pong state has %d automata for %d UEs × %d windows",
			len(t.states), c.env.nUEs, len(t.winMs))
	}
	c.t = t
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
