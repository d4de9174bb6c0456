package analysis

import (
	"telcolens/internal/ho"
	"telcolens/internal/trace"
)

// Per-UE slice aggregation: the small record-stream summary the query
// layer serves next to a subscriber's raw slice (handover counts,
// outcome split, horizontal/vertical mix, ping-pong bounces per
// standard window). The tracker reuses the pingpong experiment's
// bounce automaton, so a slice aggregate over one UE reports exactly
// the ping-pongs the whole-campaign experiment would attribute to it —
// provided records arrive in canonical (timestamp-ordered) sequence,
// which partition order guarantees.

// UESliceAggregate summarizes one subscriber's record slice.
type UESliceAggregate struct {
	// Records is the number of records observed.
	Records int64 `json:"records"`
	// Handovers counts successful handovers; Failures the unsuccessful.
	Handovers int64 `json:"handovers"`
	Failures  int64 `json:"failures"`
	// Horizontal/Vertical split successful handovers by HO type
	// (intra 4G/5G vs fallback to 3G/2G, paper §5.2).
	Horizontal int64 `json:"horizontal"`
	Vertical   int64 `json:"vertical"`
	// PingPongs maps each standard detection window (its Duration
	// string) to the number of A→B→A bounces completed within it.
	PingPongs map[string]int64 `json:"ping_pongs,omitempty"`
}

// UESliceTracker folds one UE's record stream, row by row in order, into
// a UESliceAggregate. It keeps the pingpong collector's automaton for
// the standard ping-pong windows (StandardPingPongWindows): the UE's
// last successful handover and the mask of windows still open, stepped
// by the same ppStep. Feeding records out of timestamp order
// undercounts bounces exactly as the offline definition would.
type UESliceTracker struct {
	last    ppLast
	open    uint8
	bounces []int64 // per standard window
	agg     UESliceAggregate
}

// NewUESliceTracker returns a tracker over the standard window set.
func NewUESliceTracker() *UESliceTracker {
	return &UESliceTracker{bounces: make([]int64, len(standardWinMs))}
}

// ObserveRow folds row i of cb. All rows fed to one tracker must belong
// to the same UE and arrive in canonical order.
func (t *UESliceTracker) ObserveRow(cb *trace.ColumnBatch, i int) {
	t.agg.Records++
	if cb.Results[i] != trace.Success {
		t.agg.Failures++
		return
	}
	t.agg.Handovers++
	if hoTypeByRAT[cb.RATs[i]&0x0f] == ho.Intra {
		t.agg.Horizontal++
	} else {
		t.agg.Vertical++
	}
	closed := ppStep(&t.last, &t.open, uint32(cb.Sources[i]), uint32(cb.Targets[i]), cb.Timestamps[i])
	for w := range t.bounces {
		t.bounces[w] += int64(closed >> w & 1)
	}
}

// Aggregate renders the counters accumulated so far.
func (t *UESliceTracker) Aggregate() UESliceAggregate {
	out := t.agg
	out.PingPongs = make(map[string]int64, len(StandardPingPongWindows))
	for i, w := range StandardPingPongWindows {
		out.PingPongs[w.String()] = t.bounces[i]
	}
	return out
}
