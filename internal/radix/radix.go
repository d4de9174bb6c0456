// Package radix holds the byte-wise LSD radix machinery the trace store
// sorts a day's records with: a per-byte histogram of 64-bit keys that
// tells which bytes every key shares, so a sort skips those passes, and
// a stable sort of (key, row) pairs built on it.
//
// The keys the store sorts (timestamps within a day, UE numbers) leave
// most of their bytes shared, so a handful of linear scatters replaces
// an n·log n comparison sort.
package radix

// Hist counts, for each of the eight bytes of a set of keys, how many
// keys carry each byte value.
type Hist [8][256]uint32

// Add counts key k.
func (h *Hist) Add(k uint64) {
	h[0][byte(k)]++
	h[1][byte(k>>8)]++
	h[2][byte(k>>16)]++
	h[3][byte(k>>24)]++
	h[4][byte(k>>32)]++
	h[5][byte(k>>40)]++
	h[6][byte(k>>48)]++
	h[7][byte(k>>56)]++
}

// Offsets turns byte d's counts into the start offset of each bucket.
// It reports false when all n keys share byte d (k0 is any one of them),
// so the pass would not move anything and is skipped.
func (h *Hist) Offsets(d int, k0 uint64, n int, off *[256]uint32) bool {
	if h[d][byte(k0>>(8*d))] == uint32(n) {
		return false
	}
	var sum uint32
	for b, c := range h[d] {
		off[b] = sum
		sum += c
	}
	return true
}

// Pairs is a set of (key, row) pairs and the scratch to sort them. The
// zero value is ready to use.
type Pairs struct {
	Keys    []uint64
	Rows    []int32
	tmpKeys []uint64
	tmpRows []int32
}

// Resize sets the number of pairs to n, reusing capacity; the contents
// are unspecified until the caller fills them.
func (p *Pairs) Resize(n int) {
	if cap(p.Keys) < n {
		p.Keys, p.tmpKeys = make([]uint64, n), make([]uint64, n)
		p.Rows, p.tmpRows = make([]int32, n), make([]int32, n)
	}
	p.Keys, p.tmpKeys = p.Keys[:n], p.tmpKeys[:n]
	p.Rows, p.tmpRows = p.Rows[:n], p.tmpRows[:n]
}

// Sort stably sorts the pairs by key, ping-ponging through the scratch;
// h must hold the histogram of Keys.
func (p *Pairs) Sort(h *Hist) {
	n := len(p.Keys)
	if n < 2 {
		return
	}
	var off [256]uint32
	k0 := p.Keys[0]
	for d := 0; d < 8; d++ {
		if !h.Offsets(d, k0, n, &off) {
			continue
		}
		shift := uint(8 * d)
		for i, k := range p.Keys {
			o := off[byte(k>>shift)]
			off[byte(k>>shift)]++
			p.tmpKeys[o] = k
			p.tmpRows[o] = p.Rows[i]
		}
		p.Keys, p.tmpKeys = p.tmpKeys, p.Keys
		p.Rows, p.tmpRows = p.tmpRows, p.Rows
	}
}
