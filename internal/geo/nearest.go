package geo

import "math"

// TrigPoint is a Point with the location-side trigonometry of the
// haversine tabulated: deg2rad of both coordinates and cos of the
// latitude, exactly as DistanceKm computes them inline. Fixed locations
// that are measured against many times (district centres, cell sites)
// are converted once with NewTrigPoint.
type TrigPoint struct {
	LatRad float64
	LonRad float64
	CosLat float64
}

// NewTrigPoint tabulates p (see PrecomputeTrig).
func NewTrigPoint(p Point) TrigPoint {
	lat, lon, cos := PrecomputeTrig(p)
	return TrigPoint{LatRad: lat, LonRad: lon, CosLat: cos}
}

// haversineTerm is the clamped haversine term of DistanceKm(a, b): the
// same floating-point operations in the same order, with the four
// deg2rad and two Cos calls read from the tables.
func haversineTerm(a, b TrigPoint) float64 {
	s1 := math.Sin((b.LatRad - a.LatRad) / 2)
	s2 := math.Sin((b.LonRad - a.LonRad) / 2)
	h := s1*s1 + a.CosLat*b.CosLat*s2*s2
	if h > 1 {
		h = 1
	}
	return h
}

// arcKm turns a clamped haversine term into kilometres, as DistanceKm's
// last line does.
func arcKm(h float64) float64 { return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h)) }

// DistanceTrigKm returns DistanceKm of the two tabulated points,
// bit for bit (asserted by TestDistanceTrigBitIdentical), without any
// location-side trigonometry.
func DistanceTrigKm(a, b TrigPoint) float64 { return arcKm(haversineTerm(a, b)) }

// Safety margins of the index's pruning tests. Both are many orders of
// magnitude above the rounding error of the quantities they guard (a few
// ulp) and many below any distance that matters, so a pruned point is
// strictly farther than the current best under DistanceKm's own
// arithmetic, never merely "about as far".
const (
	// hMargin is the relative slack on every comparison of two haversine
	// terms that stands in for a comparison of two distances.
	hMargin = 1e-9
	// edgeEpsDeg shrinks every cell-edge gap (≈0.1 mm of latitude): a
	// point's cell is found by a multiplication, its edge by another, and
	// the two can disagree in the last bit.
	edgeEpsDeg = 1e-9
)

// sinLower is a lower bound on sin(x) for x ≥ 0 that costs three
// multiplications: the cubic Taylor polynomial, which sin stays above on
// the whole half-line, clamped at 0 where it turns negative (x > √6).
// For the angles of a country (x ≲ 0.1) it is tight to one part in 10⁶.
// Every pruning test of the index is built on it, so the only Sin calls
// of a query are those of candidates that may actually win.
func sinLower(x float64) float64 {
	l := x - x*x*x/6
	if l < 0 {
		return 0
	}
	return l
}

// NearestIndex answers "which of these fixed points is nearest to q"
// exactly as a linear scan under DistanceKm would — same winner, and the
// lowest index among points at equal distance — in time independent of
// the number of points for well-spread sets.
//
// The points are bucketed into a uniform latitude/longitude grid over
// their bounding box. A query visits the cells around its own in rings
// of growing Chebyshev radius and stops once a conservative lower bound
// on the distance to everything outside the visited block exceeds the
// best distance found (see outsideBound). A candidate is first tested
// against a trigonometry-free lower bound of its haversine term, then on
// the term itself, and only near-winners pay for Sqrt/Asin; every
// distance that decides the result is DistanceKm's value to the bit.
type NearestIndex struct {
	// Grid geometry, degrees. inv* is cells per degree (0 on an axis the
	// points do not spread along, which then has a single cell).
	minLat, minLon, maxLon float64
	cellLat, cellLon       float64
	invLat, invLon         float64
	nLat, nLon             int

	// CSR cell contents, row-major (latitude rows): cell c holds
	// ids[start[c]:start[c+1]] and their tabulated points at the same
	// positions of pts. A run of cells in one row is one contiguous range.
	start []int32
	ids   []int32
	pts   []TrigPoint

	// cosMin is the smallest cos(latitude) over the points; bounded says
	// every point is a Valid coordinate, without which no pruning bound
	// holds and queries visit every cell.
	cosMin  float64
	bounded bool
}

// NewNearestIndex builds the index over pts. The slice is not retained.
func NewNearestIndex(pts []Point) *NearestIndex {
	ix := &NearestIndex{bounded: true, cosMin: 1, nLat: 1, nLon: 1}
	if len(pts) == 0 {
		return ix
	}
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	minLon, maxLon := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		if !p.Valid() {
			ix.bounded = false
			continue
		}
		minLat, maxLat = math.Min(minLat, p.Lat), math.Max(maxLat, p.Lat)
		minLon, maxLon = math.Min(minLon, p.Lon), math.Max(maxLon, p.Lon)
	}
	if minLat > maxLat { // no valid point at all: one cell, exhaustive
		minLat, maxLat, minLon, maxLon = 0, 0, 0, 0
	}
	ix.minLat, ix.minLon, ix.maxLon = minLat, minLon, maxLon

	// About one point per cell, cells roughly square on the ground.
	h := maxLat - minLat
	w := (maxLon - minLon) * math.Cos(deg2rad((minLat+maxLat)/2))
	n := float64(len(pts))
	switch {
	case h > 0 && w > 0:
		ix.nLat = int(min(math.Ceil(math.Sqrt(n*h/w)), n))
		ix.nLon = int(min(math.Ceil(math.Sqrt(n*w/h)), n))
	case h > 0:
		ix.nLat = len(pts)
	case w > 0:
		ix.nLon = len(pts)
	}
	if ix.nLat > 1 {
		ix.cellLat = (maxLat - minLat) / float64(ix.nLat)
		ix.invLat = float64(ix.nLat) / (maxLat - minLat)
	}
	if ix.nLon > 1 {
		ix.cellLon = (maxLon - minLon) / float64(ix.nLon)
		ix.invLon = float64(ix.nLon) / (maxLon - minLon)
	}

	// Counting sort into the CSR arrays; ids within a cell stay ascending.
	cells := ix.nLat * ix.nLon
	ix.start = make([]int32, cells+1)
	cellOfPt := make([]int32, len(pts))
	for i, p := range pts {
		c := int32(ix.row(p.Lat)*ix.nLon + ix.col(p.Lon))
		cellOfPt[i] = c
		ix.start[c+1]++
	}
	for c := 0; c < cells; c++ {
		ix.start[c+1] += ix.start[c]
	}
	ix.ids = make([]int32, len(pts))
	ix.pts = make([]TrigPoint, len(pts))
	fill := make([]int32, cells)
	for i, p := range pts {
		c := cellOfPt[i]
		at := ix.start[c] + fill[c]
		fill[c]++
		ix.ids[at] = int32(i)
		ix.pts[at] = NewTrigPoint(p)
		if p.Valid() {
			ix.cosMin = math.Min(ix.cosMin, ix.pts[at].CosLat)
		}
	}
	return ix
}

// cellOf maps a coordinate to its cell along one axis, clamping
// everything outside the box (and NaN) onto the border cells.
func cellOf(v, min, inv float64, n int) int {
	f := (v - min) * inv
	if !(f > 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

func (ix *NearestIndex) row(lat float64) int { return cellOf(lat, ix.minLat, ix.invLat, ix.nLat) }
func (ix *NearestIndex) col(lon float64) int { return cellOf(lon, ix.minLon, ix.invLon, ix.nLon) }

// nearestSearch is the running best of one query: the linear scan's
// winner among the points offered so far.
type nearestSearch struct {
	q       TrigPoint
	bounded bool // the pruning bounds hold (valid query, valid points)
	best    int
	h       float64 // haversine term of point best
	// d is DistanceKm(q, point best), computed only when a candidate's
	// term comes within hMargin of h and the two must be compared as the
	// linear scan compares them; dKnown says it has been.
	d      float64
	dKnown bool
}

// scan offers the points at CSR positions [lo, hi) to the search.
func (ix *NearestIndex) scan(s *nearestSearch, lo, hi int32) {
	pts := ix.pts[lo:hi]
	ids := ix.ids[lo:hi]
	for i := range pts {
		p := &pts[i]
		// The two Sin arguments of haversineTerm(s.q, *p).
		x1 := (p.LatRad - s.q.LatRad) / 2
		x2 := (p.LonRad - s.q.LonRad) / 2
		cc := s.q.CosLat * p.CosLat
		hCut := s.h * (1 + hMargin) // terms above it cannot win or tie
		if s.bounded {
			// |x1| ≤ π/2 and |x2| ≤ π for valid coordinates, where
			// sin² ≥ sinLower²: a point whose bound already clears the
			// cut is skipped without any trigonometry.
			l1, l2 := sinLower(math.Abs(x1)), sinLower(math.Abs(x2))
			if (l1*l1+cc*l2*l2)*(1-hMargin) > hCut {
				continue
			}
		}
		s1 := math.Sin(x1)
		s2 := math.Sin(x2)
		h := s1*s1 + cc*s2*s2
		if h > 1 {
			h = 1
		}
		id := int(ids[i])
		switch {
		case h > hCut:
			// Strictly farther even after Sqrt/Asin rounding.
		case h < s.h*(1-hMargin):
			// Strictly nearer, likewise: the distance itself can wait.
			s.best, s.h, s.dKnown = id, h, false
		default:
			// Too close to call on the terms: decide on the distances, with
			// the linear scan's rule.
			if !s.dKnown {
				s.d, s.dKnown = arcKm(s.h), true
			}
			if d := arcKm(h); d < s.d || (d == s.d && id < s.best) {
				s.best, s.h, s.d = id, h, d
			}
		}
	}
}

// Nearest returns the index i minimising DistanceKm(q, pts[i]), the
// lowest such i on ties — the answer of
//
//	best, bestD := 0, +Inf
//	for i, p := range pts { if d := DistanceKm(q, p); d < bestD { best, bestD = i, d } }
//
// for every q, including coordinates outside the points' bounding box
// and invalid or NaN ones (those simply visit every cell). It returns -1
// for an empty set.
func (ix *NearestIndex) Nearest(q Point) int {
	if len(ix.ids) == 0 {
		return -1
	}
	s := nearestSearch{q: NewTrigPoint(q), bounded: ix.bounded && q.Valid(), h: math.Inf(1)}
	cx, cy := ix.col(q.Lon), ix.row(q.Lat)
	nLon := ix.nLon

	for k := 0; ; k++ {
		x0, x1 := max(cx-k, 0), min(cx+k, nLon-1)
		y0, y1 := max(cy-k, 0), min(cy+k, ix.nLat-1)
		// Ring k: the full top and bottom rows of the block, and the two
		// end cells of every row in between — each where the grid has them.
		if cy-k >= 0 {
			ix.scan(&s, ix.start[y0*nLon+x0], ix.start[y0*nLon+x1+1])
		}
		if k > 0 && cy+k < ix.nLat {
			ix.scan(&s, ix.start[y1*nLon+x0], ix.start[y1*nLon+x1+1])
		}
		for y := max(cy-k+1, 0); y <= min(cy+k-1, ix.nLat-1); y++ {
			if cx-k >= 0 {
				ix.scan(&s, ix.start[y*nLon+x0], ix.start[y*nLon+x0+1])
			}
			if cx+k < nLon {
				ix.scan(&s, ix.start[y*nLon+x1], ix.start[y*nLon+x1+1])
			}
		}
		if x0 == 0 && y0 == 0 && x1 == nLon-1 && y1 == ix.nLat-1 {
			return s.best // every cell visited
		}
		if s.bounded && s.h < ix.outsideBound(q, s.q.CosLat, x0, x1, y0, y1)*(1-hMargin) {
			return s.best
		}
	}
}

// outsideBound returns a lower bound on the haversine term between the
// valid query q and any indexed point outside the cell block
// [x0,x1]×[y0,y1]. Such a point lies beyond one of the block's sides
// that the grid extends past, so either
//
//   - its latitude differs from q's by at least the gap g to that side:
//     h ≥ sin²(Δlat/2) ≥ sin²(g/2), as |Δlat| ≤ 180°; or
//   - its raw longitude difference lies in [g, far], far reaching the
//     grid's own edge: h ≥ cos(lat q)·cos(lat p)·sin²(Δlon/2), where
//     cos(lat p) ≥ cosMin and sin² over an interval inside [0°, 360°]
//     is smallest at an end of it. (far > 180° only when the points
//     straddle the antimeridian from q's side; the bound then degrades
//     toward 0 and the search toward a full visit, never to a wrong
//     answer.)
func (ix *NearestIndex) outsideBound(q Point, cosQ float64, x0, x1, y0, y1 int) float64 {
	bound := 1.0
	if y0 > 0 {
		bound = min(bound, sinSqHalf(q.Lat-(ix.minLat+float64(y0)*ix.cellLat)-edgeEpsDeg))
	}
	if y1 < ix.nLat-1 {
		bound = min(bound, sinSqHalf(ix.minLat+float64(y1+1)*ix.cellLat-q.Lat-edgeEpsDeg))
	}
	lon := 2.0 // no longitude side open yet
	if x0 > 0 {
		lon = min(lon, sinSqHalf(q.Lon-(ix.minLon+float64(x0)*ix.cellLon)-edgeEpsDeg))
		if far := q.Lon - ix.minLon + edgeEpsDeg; far > 180 {
			lon = min(lon, sinSqHalf(far))
		}
	}
	if x1 < ix.nLon-1 {
		lon = min(lon, sinSqHalf(ix.minLon+float64(x1+1)*ix.cellLon-q.Lon-edgeEpsDeg))
		if far := ix.maxLon - q.Lon + edgeEpsDeg; far > 180 {
			lon = min(lon, sinSqHalf(far))
		}
	}
	if lon <= 1 {
		bound = min(bound, cosQ*ix.cosMin*lon)
	}
	return bound
}

// sinSqHalf returns a lower bound on sin²(deg/2) for an angle in
// [0°, 360°], 0 for a non-positive one (a gap the margins ate: no bound).
func sinSqHalf(deg float64) float64 {
	if deg <= 0 {
		return 0
	}
	s := sinLower(deg2rad(deg) / 2)
	return s * s
}
