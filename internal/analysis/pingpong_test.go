package analysis

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"telcolens/internal/simulate"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// The ping-pong oracle: one bounce automaton per UE per window, the
// definition the shared per-UE automaton (ppStep) must reproduce.

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

// ppTracker runs the per-window automata of every UE and the counters.
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

// encode writes the tracker in the layout of snapshot versions 1 and 2:
// the counters, then every automaton (17 bytes each), an invalid one
// still carrying the pair it closed.
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

// advance replays the given partitions, in canonical order, one at a
// time through the oracle's automata, restricted to the records inside
// tr when tr is set. The NeedPingPong collector must count exactly what
// it counts.
func (t *ppTracker) advance(ctx context.Context, store trace.Store, parts []trace.Partition, sectors []sectorMeta, tr *trace.TimeRange) error {
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
				if tr != nil && (cb.Timestamps[i] < tr.MinTS || cb.Timestamps[i] > tr.MaxTS) {
					continue
				}
				t.observe(sectors, cb.Timestamps[i], cb.UEs[i], cb.Sources[i], cb.Targets[i], cb.Results[i])
			}
		}
		if err := it.Close(); err != nil {
			return err
		}
	}
	return nil
}

// oraclePingPong runs the oracle over every partition of the dataset's
// store for the given windows.
func oraclePingPong(t *testing.T, ds *simulate.Dataset, windows []time.Duration, tr *trace.TimeRange) []*PingPongStats {
	t.Helper()
	parts, err := ds.Config.Store.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	tk := newPPTracker(ds.Population.Len(), windows)
	if err := tk.advance(context.Background(), ds.Config.Store, parts, newScanEnv(ds).sectors, tr); err != nil {
		t.Fatal(err)
	}
	return tk.stats(windows)
}

// collectorPingPong returns the analyzer's NeedPingPong view.
func collectorPingPong(t *testing.T, a *Analyzer) []*PingPongStats {
	t.Helper()
	st, err := a.Require(context.Background(), NeedPingPong)
	if err != nil {
		t.Fatal(err)
	}
	return st.pingPong
}

func samePingPong(t *testing.T, label string, got, want []*PingPongStats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: collector ping-pong counts differ from the oracle\ngot  %s\nwant %s", label, ppString(got), ppString(want))
	}
}

func ppString(ss []*PingPongStats) string {
	var b bytes.Buffer
	for _, s := range ss {
		fmt.Fprintf(&b, "%+v ", *s)
	}
	return b.String()
}

func TestPingPongMonotoneInWindow(t *testing.T) {
	a := shared(t)
	all := oraclePingPong(t, a.DS, []time.Duration{time.Second, 30 * time.Second, 5 * time.Minute}, nil)
	var prev int64 = -1
	for _, s := range all {
		if s.PingPongs < prev {
			t.Fatalf("PP count decreased with a larger window at %v", s.Window)
		}
		prev = s.PingPongs
		if s.Rate() < 0 || s.Rate() > 1 {
			t.Fatalf("rate %g out of range", s.Rate())
		}
	}
}

func TestPingPongDetectsBounces(t *testing.T) {
	a := shared(t)
	// Local random walks bounce between neighbor sites regularly: at a
	// 5-minute window the PP rate should be visible but far from total.
	s := oraclePingPong(t, a.DS, []time.Duration{5 * time.Minute}, nil)[0]
	if s.PingPongs == 0 {
		t.Fatal("no ping-pongs detected at a 5-minute window")
	}
	if s.Rate() > 0.5 {
		t.Fatalf("PP rate %.3f implausibly high", s.Rate())
	}
	if s.AreaHOs[0]+s.AreaHOs[1] != s.HOs {
		t.Fatal("area split does not cover all HOs")
	}
}

// TestPingPongCollectorMatchesOracle holds the fused-scan collector to
// the sequential replay: same counts on 1 and 4 shards at any scan
// parallelism, and after a refresh at every split point — in place and
// from a checkpoint.
func TestPingPongCollectorMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("generates campaigns")
	}
	for _, shards := range []int{1, 4} {
		ds := detDataset(t, shards)
		want := oraclePingPong(t, ds, StandardPingPongWindows, nil)
		for _, par := range []int{1, 8} {
			a, err := New(ds, WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			samePingPong(t, fmt.Sprintf("shards=%d parallelism=%d", shards, par), collectorPingPong(t, a), want)
		}
	}

	ds := detDataset(t, 2)
	want := oraclePingPong(t, ds, StandardPingPongWindows, nil)
	for split := 1; split < detDays; split++ {
		// The analyzer first sees only the days before the split, then
		// the rest lands.
		view := *ds
		store := &countingStore{Store: ds.Config.Store, maxDay: split}
		view.Config.Store = store
		a, err := New(&view, WithParallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		collectorPingPong(t, a)
		var ckpt bytes.Buffer
		if err := a.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		store.setMaxDay(detDays)
		if _, err := a.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		samePingPong(t, fmt.Sprintf("split=%d in place", split), collectorPingPong(t, a), want)

		store.setMaxDay(split)
		resumed, err := ResumeAnalyzer(&view, bytes.NewReader(ckpt.Bytes()), WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		store.setMaxDay(detDays)
		res, err := resumed.Refresh(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.FullRescan || res.PartitionsScanned != (detDays-split)*2 {
			t.Fatalf("split=%d: resumed refresh scanned %d partitions (full rescan %v), want only the new days",
				split, res.PartitionsScanned, res.FullRescan)
		}
		samePingPong(t, fmt.Sprintf("split=%d resumed", split), collectorPingPong(t, resumed), want)
	}
}

// TestPingPongHonoursWindow: a windowed analysis counts ping-pongs over
// the window's records only, as every other experiment does.
func TestPingPongHonoursWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ds := detDataset(t, 4)
	for _, w := range [][2]int{{1, 2}, {0, 0}, {2, -1}} {
		a, err := New(ds, WithWindow(w[0], w[1]))
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.DayRange(clampWindow(w[0], w[1], detDays))
		want := oraclePingPong(t, ds, StandardPingPongWindows, &tr)
		got := collectorPingPong(t, a)
		samePingPong(t, fmt.Sprintf("window %v", w), got, want)
		if full := oraclePingPong(t, ds, StandardPingPongWindows, nil); got[0].HOs >= full[0].HOs {
			t.Fatalf("window %v: %d HOs, not fewer than the whole study's %d", w, got[0].HOs, full[0].HOs)
		}
	}
}

// countingStore counts OpenPartition calls per partition and lists only
// the partitions before maxDay, in both Partitions and Manifest.
type countingStore struct {
	trace.Store
	mu     sync.Mutex
	maxDay int
	opens  map[trace.Partition]int
}

func (s *countingStore) setMaxDay(d int) {
	s.mu.Lock()
	s.maxDay = d
	s.mu.Unlock()
}

func (s *countingStore) Partitions() ([]trace.Partition, error) {
	parts, err := s.Store.Partitions()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var kept []trace.Partition
	for _, p := range parts {
		if p.Day < s.maxDay {
			kept = append(kept, p)
		}
	}
	return kept, nil
}

// Manifest hides the same days Partitions does.
func (s *countingStore) Manifest() (*trace.Manifest, error) {
	m, err := s.Store.Manifest()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := m.Partitions[:0]
	for _, pi := range m.Partitions {
		if pi.Day < s.maxDay {
			kept = append(kept, pi)
		}
	}
	m.Partitions = kept
	return m, nil
}

func (s *countingStore) OpenPartition(day, shard int) (trace.RecordIterator, error) {
	s.mu.Lock()
	if s.opens == nil {
		s.opens = make(map[trace.Partition]int)
	}
	s.opens[trace.Partition{Day: day, Shard: shard}]++
	s.mu.Unlock()
	return s.Store.OpenPartition(day, shard)
}

// TestRunAllReadsEachPartitionOnce: the whole report, ping-pong included,
// costs one read of the trace, and the scan counters say so.
func TestRunAllReadsEachPartitionOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ds := detDataset(t, 4)
	parts, err := ds.Config.Store.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 8} {
		view := *ds
		store := &countingStore{Store: ds.Config.Store, maxDay: detDays}
		view.Config.Store = store
		a, err := New(&view, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := RunAll(context.Background(), a, &out); err != nil {
			t.Fatal(err)
		}
		if len(store.opens) != len(parts) {
			t.Fatalf("parallelism=%d: RunAll opened %d of %d partitions", par, len(store.opens), len(parts))
		}
		for p, n := range store.opens {
			if n != 1 {
				t.Fatalf("parallelism=%d: RunAll opened %v %d times, want once", par, p, n)
			}
		}
		if st := a.ScanStats(); st.Partitions != int64(len(parts)) || st.Scans != 1 {
			t.Fatalf("parallelism=%d: ScanStats reports %d scans over %d partitions, want 1 over %d",
				par, st.Scans, st.Partitions, len(parts))
		}
	}
}

// TestPingPongRestoreRejectsForeignStates: restore takes only the
// standard windows, one automaton per UE of the dataset and open masks
// within the window count.
func TestPingPongRestoreRejectsForeignStates(t *testing.T) {
	env := &scanEnv{nUEs: 3}
	c := newPingPongCollector(env)
	c.last[1], c.open[1] = ppLast{src: 4, dst: 9, ts: 1234}, 0b1010
	c.hos, c.pingPongs[3] = 7, 2
	e := &enc{}
	c.encode(e)
	good := e.b
	badMask := slices.Clone(good)
	badMask[len(badMask)-1] = 1 << len(standardWinMs) // the last UE's mask
	otherWindow := slices.Clone(good)
	binary.LittleEndian.PutUint64(otherWindow[4:], 3000) // the first window, after its count
	for _, tc := range []struct {
		name string
		b    []byte
		nUEs int
		ok   bool
	}{
		{"canonical", good, 3, true},
		{"mask-past-windows", badMask, 3, false},
		{"other-window", otherWindow, 3, false},
		{"other-population", good, 4, false},
	} {
		fresh := newPingPongCollector(&scanEnv{nUEs: tc.nUEs})
		err := fresh.restore(&dec{b: tc.b})
		if (err == nil) != tc.ok {
			t.Errorf("%s: restore err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok {
			back := &enc{}
			fresh.encode(back)
			if !bytes.Equal(back.b, good) {
				t.Errorf("%s: the restored state encodes differently", tc.name)
			}
		}
	}
}

// FuzzPingPongAutomaton runs one UE's handover sequence through the
// shared automaton (ppStep) and the per-window oracle. Each step takes
// three bytes: the pair (a fresh one from eight sectors, the last one
// repeated, or the last one reversed) and the gap to the previous
// handover (zero, a standard window exactly or one millisecond either
// side of it, an arbitrary one, or backwards in time). The per-window
// counts must agree after every step, a window is open exactly where the
// oracle's automaton is valid, and every open window holds the oracle's
// pair and timestamp.
func FuzzPingPongAutomaton(f *testing.F) {
	// A→B, then B→A at exactly, one ms past and one ms inside each window.
	f.Add([]byte{0, 0, 8, 2, 4, 0, 2, 12, 0, 3, 8, 0, 2, 9, 0, 2, 13, 0})
	f.Add([]byte{0, 1, 9, 1, 0, 0, 2, 0, 0, 2, 0, 0, 3, 5, 0, 1, 21, 7, 2, 22, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		nW := len(standardWinMs)
		oracle := make([]pingPongState, nW)
		want, got := make([]int64, nW), make([]int64, nW)
		var last ppLast
		var open uint8
		var src, dst uint32
		var ts int64
		for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
			op, gap, x := data[0], data[1], data[2]
			switch op % 4 {
			case 0:
				src, dst = uint32(x%8), uint32(x/8%8)
			case 1: // the same pair again
			default:
				src, dst = dst, src
			}
			win := standardWinMs[int(gap)%nW]
			switch gap / 4 % 6 {
			case 1:
				ts += win
			case 2:
				ts += win - 1
			case 3:
				ts += win + 1
			case 4:
				ts += int64(x) * 997
			case 5:
				ts -= int64(x)
			}
			closed := ppStep(&last, &open, src, dst, ts)
			for w := range oracle {
				if oracle[w].step(src, dst, ts, standardWinMs[w]) {
					want[w]++
				}
				got[w] += int64(closed >> w & 1)
				o := &oracle[w]
				if isOpen := open>>w&1 != 0; isOpen != o.valid ||
					isOpen && (last != ppLast{src: o.src, dst: o.dst, ts: o.ts}) {
					t.Fatalf("step %d, window %dms: open %v holding %+v, oracle %+v", step, standardWinMs[w], isOpen, last, *o)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: ping-pongs per window %v, oracle %v", step, got, want)
			}
		}
	})
}
