package analysis

import (
	"math"
	"slices"

	"telcolens/internal/radix"
)

// Exact LSD radix sorts for the duration samplers. Encoding a sampler
// for a checkpoint orders its (priority, value) pairs canonically — the
// one reader of that order, so a seal leaves the pairs unordered — and
// a re-seal of a sorted run orders the appended suffix; SortedSamples
// orders a published copy of the values, up to 200k samples per sampler,
// on its first read. The priorities are uniform 64-bit hashes and the
// values float32-exact durations, so a byte-wise radix sort that skips the bytes every key
// shares (the histogram of internal/radix, which the trace store's
// canonical day order uses too) needs a handful of linear passes where
// a comparison sort needs n·log n compares.
//
// Both sorts produce exactly the order their comparison-sort oracles do
// (see radix_test.go): LSD radix on the priority is stable, and a final
// pass orders each run of equal priorities by value, which is pvLess.
// The float sort orders by the IEEE-754 total-order key, which agrees
// with < on every pair of finite values except -0 and +0 (it puts -0
// first; < calls them equal). Both sorts therefore need the values to
// be finite and not -0, which sampled durations are: the generator draws
// positive times, and the trace codecs quantize every stored one to a
// 16-bit code of a value in [0, 32767] ms. A restored sampler is held to
// the same: restore rejects NaN and -0 values.

// sealScratch is the radix buffer that one collector's samplers share
// while sealing, and that SortedSamples borrows from a pool: it grows to
// the largest sampler once instead of each sort allocating its own. It
// is not safe for concurrent use.
type sealScratch struct{ buf []uint64 }

func (sc *sealScratch) words(n int) []uint64 {
	if cap(sc.buf) < n {
		sc.buf = make([]uint64, n)
	}
	return sc.buf[:n]
}

// radixSortPV sorts the parallel (priority, value) slices into pvLess
// order. The passes alternate between the parallel slices and the
// scratch, which holds the pairs packed (priority, value bits) so each
// scatter writes one stream; an odd pass count ends with one copy back.
func radixSortPV(pri []uint64, val []float64, sc *sealScratch) {
	n := len(pri)
	if n < 2 {
		return
	}
	var h radix.Hist
	for _, p := range pri {
		h.Add(p)
	}
	packed := sc.words(2 * n)
	var off [256]uint32
	inPacked := false
	k0 := pri[0]
	for d := 0; d < 8; d++ {
		if !h.Offsets(d, k0, n, &off) {
			continue
		}
		shift := uint(8 * d)
		if inPacked {
			for i := 0; i < n; i++ {
				p := packed[2*i]
				o := off[byte(p>>shift)]
				off[byte(p>>shift)]++
				pri[o] = p
				val[o] = math.Float64frombits(packed[2*i+1])
			}
		} else {
			for i, p := range pri {
				o := off[byte(p>>shift)]
				off[byte(p>>shift)]++
				packed[2*o] = p
				packed[2*o+1] = math.Float64bits(val[i])
			}
		}
		inPacked = !inPacked
	}
	if inPacked {
		for i := range pri {
			pri[i] = packed[2*i]
			val[i] = math.Float64frombits(packed[2*i+1])
		}
	}
	// Runs of equal priority are in input order; order them by value.
	for i := 0; i < n; {
		j := i + 1
		for j < n && pri[j] == pri[i] {
			j++
		}
		if j-i > 1 {
			slices.Sort(val[i:j])
		}
		i = j
	}
}

// floatKey maps a float64 to a uint64 whose unsigned order is the
// IEEE-754 total order: negative values have every bit flipped, the
// others only the sign bit.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// radixSortFloats sorts x ascending through its IEEE-754 sort keys,
// ping-ponging between the two halves of the scratch.
func radixSortFloats(x []float64, sc *sealScratch) {
	n := len(x)
	if n < 2 {
		return
	}
	buf := sc.words(2 * n)
	src, dst := buf[:n], buf[n:]
	var h radix.Hist
	for i, v := range x {
		k := floatKey(v)
		src[i] = k
		h.Add(k)
	}
	var off [256]uint32
	k0 := src[0]
	for d := 0; d < 8; d++ {
		if !h.Offsets(d, k0, n, &off) {
			continue
		}
		shift := uint(8 * d)
		for _, k := range src {
			dst[off[byte(k>>shift)]] = k
			off[byte(k>>shift)]++
		}
		src, dst = dst, src
	}
	for i, k := range src {
		x[i] = keyFloat(k)
	}
}
