package analysis

import (
	"context"
	"fmt"
	"slices"
	"sort"
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
	register("pingpong", "Ping-pong handover analysis (extension, §7 related work)", "§7 (Feher'12, Zidic'23)", 0, runPingPong)
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

// PingPong scans the trace for A→B→A bounces completed within the window.
// Only successful handovers advance the serving sector, matching the PP
// definition of the prior studies.
func (a *Analyzer) PingPong(ctx context.Context, window time.Duration) (*PingPongStats, error) {
	out, err := a.PingPongAll(ctx, []time.Duration{window})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// pingPongState is one UE's bounce automaton for one window.
type pingPongState struct {
	src, dst uint32
	ts       int64
	valid    bool
}

// StandardPingPongWindows are the detection windows the pingpong
// experiment renders. PingPongAll maintains incremental automaton state
// for exactly this window set, so refreshing after a day lands replays
// only the new partitions; other window sets pay a one-shot full pass.
var StandardPingPongWindows = []time.Duration{2 * time.Second, 10 * time.Second, time.Minute, 5 * time.Minute}

// ppTracker is the resumable ping-pong engine: the per-UE per-window
// bounce automata plus the counters, and the partitions already folded.
// Because the automata advance strictly in canonical partition order and
// a UE's whole record sequence is preserved by that order, the state
// after partition k is a pure function of partitions 0..k — appending
// partitions continues the sequence exactly, which makes incremental
// counts identical to a cold pass.
type ppTracker struct {
	winMs     []int64
	states    []pingPongState // nUEs × len(winMs), window-major per UE
	hos       int64
	areaHOs   [2]int64
	pingPongs []int64
	byArea    [][2]int64
	covered   []trace.PartitionInfo
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
		st := &t.states[base+w]
		if st.valid &&
			uint32(src) == st.dst && uint32(dst) == st.src &&
			ts-st.ts <= t.winMs[w] {
			t.pingPongs[w]++
			t.byArea[w][areaIdx]++
			// A PP closes the pair; the bounce-back does not seed a new one.
			st.valid = false
			continue
		}
		*st = pingPongState{src: uint32(src), dst: uint32(dst), ts: ts, valid: true}
	}
}

// advance replays the given partitions, in canonical order, through the
// automata. The pass is sequential — the per-UE bounce state must
// survive day boundaries, which the per-partition collector states do
// not — and streams each partition as SoA batches.
func (t *ppTracker) advance(ctx context.Context, store trace.Store, parts []trace.Partition, sectors []sectorMeta) error {
	sort.Slice(parts, func(i, j int) bool { return parts[i].Less(parts[j]) })
	var cb trace.ColumnBatch
	for _, p := range parts {
		it, err := store.OpenPartition(p.Day, p.Shard)
		if err != nil {
			return err
		}
		for {
			if err := ctx.Err(); err != nil {
				it.Close()
				return err
			}
			n, err := it.NextColumns(&cb)
			if err != nil {
				it.Close()
				return err
			}
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				t.observe(sectors, cb.Timestamps[i], cb.UEs[i], cb.Sources[i], cb.Targets[i], cb.Results[i])
			}
		}
		if err := it.Close(); err != nil {
			return err
		}
	}
	return nil
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
	encodeCoverage(e, t.covered)
}

func decodePPTracker(d *dec, nUEs int) (*ppTracker, error) {
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
	t.covered = decodeCoverage(d)
	if d.err != nil {
		return nil, d.err
	}
	if nStates != nUEs*len(t.winMs) || len(t.pingPongs) != len(t.winMs) || len(t.byArea) != len(t.winMs) {
		return nil, fmt.Errorf("analysis: ping-pong tracker shape mismatch (%d states for %d UEs × %d windows)",
			nStates, nUEs, len(t.winMs))
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

// PingPongAll computes ping-pong stats for every window in ONE pass over
// the trace (the automata are independent, so all windows advance per
// record); the v1 implementation re-scanned the whole store per window.
// For the standard window set the pass is also incremental: the analyzer
// keeps the automata and counters between calls, so after new partitions
// land only they are replayed (and the state rides along in checkpoints).
// The result is sharding-invariant because the canonical partition order
// preserves every UE's record sequence, and incremental-invariant
// because appended partitions continue that sequence exactly.
func (a *Analyzer) PingPongAll(ctx context.Context, windows []time.Duration) ([]*PingPongStats, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("analysis: ping-pong without windows")
	}
	if slices.Equal(windows, StandardPingPongWindows) {
		return a.pingPongIncremental(ctx)
	}
	// One-shot pass over the store's current partitions.
	t := newPPTracker(a.DS.Population.Len(), windows)
	sectors := a.sharedEnv().sectors
	parts, err := a.DS.Store.Partitions()
	if err != nil {
		return nil, err
	}
	if err := t.advance(ctx, a.DS.Store, parts, sectors); err != nil {
		return nil, err
	}
	return t.stats(windows), nil
}

// pingPongIncremental advances (or rebuilds) the tracker for the
// standard windows to cover the store's current partitions.
func (a *Analyzer) pingPongIncremental(ctx context.Context) ([]*PingPongStats, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.syncEnvLocked(); err != nil {
		return nil, err
	}
	// Whole-day coverage (shared with the scan state): the automata could
	// continue mid-day exactly, but advancing in the same units keeps the
	// checkpointed coverages aligned.
	cur, _, err := a.currentCoverageLocked()
	if err != nil {
		return nil, err
	}
	t := a.pp
	var delta []trace.PartitionInfo
	if t != nil {
		var ok bool
		if delta, ok = coverageDelta(t.covered, cur); !ok {
			t = nil // non-append change: rebuild from scratch
		}
	}
	if t == nil {
		t = newPPTracker(a.env.nUEs, StandardPingPongWindows)
		delta = cur
	}
	if len(delta) > 0 {
		if err := t.advance(ctx, a.DS.Store, partitionsOf(delta), a.env.sectors); err != nil {
			a.pp = nil // partially advanced automata are unusable
			return nil, err
		}
	}
	t.covered = cur
	a.pp = t
	return t.stats(StandardPingPongWindows), nil
}

func runPingPong(ctx context.Context, a *Analyzer, art *report.Artifact) error {
	tbl := report.Table{
		Title:   "Ping-pong handovers (A→B→A within window)",
		Columns: []string{"Window", "HOs", "Ping-pongs", "Rate", "Urban rate", "Rural rate"},
	}
	all, err := a.PingPongAll(ctx, StandardPingPongWindows)
	if err != nil {
		return err
	}
	for _, s := range all {
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
