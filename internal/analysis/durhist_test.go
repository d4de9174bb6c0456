package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"telcolens/internal/causes"
	"telcolens/internal/stats"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// randomCodes draws n duration codes an encoder writes: low codes, high
// codes, and codes on both sides of the 3 276.7 ms boundary, where the
// scale switches from 0.1 ms to whole milliseconds.
func randomCodes(r *rand.Rand, n int) []uint16 {
	boundary := []uint16{32765, 32766, 32767, 0x8ccd, 0x8cce, 0x8ccf}
	out := make([]uint16, n)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = boundary[r.Intn(len(boundary))]
		case 1:
			out[i] = 0x8ccd + uint16(r.Intn(0xffff-0x8ccd+1))
		default:
			out[i] = uint16(r.Intn(0x8000))
		}
	}
	return out
}

// sortedValues is the oracle's view of codes: every value, ascending.
func sortedValues(codes []uint16) []float64 {
	vals := make([]float64, len(codes))
	for i, c := range codes {
		vals[i] = float64(trace.DurationValue(c))
	}
	slices.Sort(vals)
	return vals
}

// TestDurHistMatchesSortedOracle: the quantiles and ECDF points of a
// histogram equal, bit for bit, what QuantilesSorted and NewECDFSorted
// give over every value sorted — for empty, one-value and all-equal
// classes and for random codes on both sides of the scale boundary.
func TestDurHistMatchesSortedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	classes := map[string][]uint16{
		"empty":     nil,
		"one value": {430},
		"all equal": slices.Repeat([]uint16{0x8ccd}, 1000),
		"two codes": {32767, 0x8ccd, 32767},
	}
	for _, n := range []int{2, 7, 100, 4097, 50_000} {
		classes[fmt.Sprintf("random %d", n)] = randomCodes(r, n)
	}
	qs := []float64{0, 0.01, 0.05, 0.25, 1.0 / 3, 0.5, 0.95, 0.99, 0.999, 1}
	for name, codes := range classes {
		var h durHist
		for rest := codes; len(rest) > 0; {
			k := min(len(rest), 1+r.Intn(64))
			h.add(rest[:k])
			rest = rest[k:]
		}
		d := h.dist()
		vals := sortedValues(codes)
		if d.N() != int64(len(vals)) {
			t.Fatalf("%s: N = %d, want %d", name, d.N(), len(vals))
		}
		got, want := d.Quantiles(qs...), stats.QuantilesSorted(vals, qs...)
		for i := range qs {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: quantile %v = %v, want %v", name, qs[i], got[i], want[i])
			}
		}
		e, err := d.ECDF()
		oe, oerr := stats.NewECDFSorted(vals)
		if !errors.Is(err, oerr) {
			t.Fatalf("%s: ECDF error %v, want %v", name, err, oerr)
		}
		if err != nil {
			continue
		}
		for _, max := range []int{0, 1, 2, 16, 24, len(vals), len(vals) + 3} {
			xs, fs := e.Points(max)
			oxs, ofs := oe.Points(max)
			if !slices.Equal(xs, oxs) || !slices.Equal(fs, ofs) {
				t.Fatalf("%s: ECDF points (max %d) differ from the sorted oracle", name, max)
			}
		}
	}
}

// randomBatch is n records of random class and canonical duration.
func randomBatch(r *rand.Rand, n int) *trace.ColumnBatch {
	cb := &trace.ColumnBatch{}
	codes := randomCodes(r, n)
	for i := 0; i < n; i++ {
		cb.Timestamps = append(cb.Timestamps, int64(i))
		cb.Causes = append(cb.Causes, causes.Code(r.Intn(12)))
		cb.RATs = append(cb.RATs, uint8(topology.FourG)<<4|uint8(r.Intn(4)))
		res := trace.Success
		if r.Intn(3) == 0 {
			res = trace.Failure
		}
		cb.Results = append(cb.Results, res)
		cb.Durations = append(cb.Durations, trace.DurationValue(codes[i]))
	}
	return cb
}

// slice returns records [lo, hi) of cb as a batch of its own.
func slice(cb *trace.ColumnBatch, lo, hi int) *trace.ColumnBatch {
	return &trace.ColumnBatch{
		Timestamps: cb.Timestamps[lo:hi], Causes: cb.Causes[lo:hi], RATs: cb.RATs[lo:hi],
		Results: cb.Results[lo:hi], Durations: cb.Durations[lo:hi],
	}
}

// durationsState is the checkpoint encoding of a durations collector.
func durationsState(c *durationsCollector) []byte {
	e := &enc{}
	c.encode(e)
	return e.b
}

// TestDurationsMergeOrderInvariant: the histograms equal those of one
// state that saw every record, after any split of the records into shard
// states merged in record order (shard_split), and after any order of
// merging them, through recycled states (merge_order).
func TestDurationsMergeOrderInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cb := randomBatch(r, 20_000)
	one := new(durationsCollector)
	st := one.NewShardState(0, 0)
	if err := st.ObserveColumns(0, cb); err != nil {
		t.Fatal(err)
	}
	if err := one.MergeShard(st); err != nil {
		t.Fatal(err)
	}
	want := durationsState(one)
	// split merges the records cut into 1–12 shard states, each taking
	// its part in two batches; shuffle also merges some states at once,
	// so later parts recycle them, and the rest in random order.
	split := func(t *testing.T, shuffle bool) {
		for trial := 0; trial < 20; trial++ {
			cuts := []int{0, cb.Len()}
			for k := r.Intn(12); k > 0; k-- {
				cuts = append(cuts, r.Intn(cb.Len()+1))
			}
			slices.Sort(cuts)
			c := new(durationsCollector)
			var states []trace.ShardState
			for i := 0; i+1 < len(cuts); i++ {
				s := c.NewShardState(0, i)
				lo, hi := cuts[i], cuts[i+1]
				mid := lo + r.Intn(hi-lo+1)
				for _, b := range []*trace.ColumnBatch{slice(cb, lo, mid), slice(cb, mid, hi)} {
					if err := s.ObserveColumns(0, b); err != nil {
						t.Fatal(err)
					}
				}
				states = append(states, s)
				if shuffle && r.Intn(2) == 0 {
					if err := c.MergeShard(s); err != nil {
						t.Fatal(err)
					}
					states = states[:len(states)-1]
				}
			}
			if shuffle {
				r.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
			}
			for _, s := range states {
				if err := c.MergeShard(s); err != nil {
					t.Fatal(err)
				}
			}
			if got := durationsState(c); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: a split into %d parts gives other histograms", trial, len(cuts)-1)
			}
		}
	}
	t.Run("shard_split", func(t *testing.T) { split(t, false) })
	t.Run("merge_order", func(t *testing.T) { split(t, true) })
}

// TestDurationsRefuseNonCanonicalValues: a stored duration that is not
// exactly a codec value — NaN, −0, negative, off grid or past the
// range — fails the scan as a corrupt block instead of being counted
// under a code that would change it.
func TestDurationsRefuseNonCanonicalValues(t *testing.T) {
	for _, v := range []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), -1, 43.45, 3500.5, 40000} {
		cb := randomBatch(rand.New(rand.NewSource(1)), 10)
		cb.Durations[7] = v
		s := new(durationsCollector).NewShardState(0, 0)
		if err := s.ObserveColumns(0, cb); !errors.Is(err, trace.ErrCorruptBlock) {
			t.Fatalf("duration %v: ObserveColumns err = %v, want one wrapping trace.ErrCorruptBlock", v, err)
		}
	}
}

// TestDurationsRestoreRejectsForeignStates: restore accepts exactly what
// encode writes, and an encoded histogram restores to the same bytes.
func TestDurationsRestoreRejectsForeignStates(t *testing.T) {
	type pair struct {
		code uint16
		n    int64
	}
	state := func(pairs ...pair) []byte {
		e := &enc{}
		e.u32(uint32(len(pairs)))
		for _, p := range pairs {
			e.u16(p.code)
			e.i64(p.n)
		}
		return e.b
	}
	for _, c := range []struct {
		name string
		b    []byte
		ok   bool
	}{
		{"canonical", state(pair{0, 1}, pair{430, 7}, pair{32767, 2}, pair{0x8ccd, 3}, pair{0xffff, 1}), true},
		{"empty", state(), true},
		{"max total", state(pair{1, math.MaxInt64 - 1}, pair{2, 1}), true},
		{"descending codes", state(pair{431, 1}, pair{430, 1}), false},
		{"repeated code", state(pair{430, 1}, pair{430, 1}), false},
		{"zero count", state(pair{430, 0}), false},
		{"negative count", state(pair{430, -4}), false},
		{"total overflows", state(pair{1, math.MaxInt64}, pair{2, 1}), false},
		{"lowest unwritten high code", state(pair{0x8000, 1}), false},
		{"highest unwritten high code", state(pair{0x8ccc, 1}), false},
		{"truncated", state(pair{430, 1}, pair{431, 1})[:19], false},
	} {
		var h durHist
		d := &dec{b: c.b}
		h.restore(d)
		if (d.err == nil) != c.ok {
			t.Fatalf("%s: restore err = %v, want ok=%v", c.name, d.err, c.ok)
		}
		if !c.ok {
			continue
		}
		e := &enc{}
		h.encode(e)
		if !bytes.Equal(e.b, c.b) {
			t.Fatalf("%s: restored histogram encodes to other bytes", c.name)
		}
	}
}
