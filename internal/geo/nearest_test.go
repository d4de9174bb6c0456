package geo

import (
	"math"
	"math/rand"
	"testing"
)

// linearNearest is the reference NearestIndex must reproduce: a linear
// scan under DistanceKm, first (lowest-index) minimum wins.
func linearNearest(pts []Point, q Point) int {
	if len(pts) == 0 {
		return -1
	}
	best, bestD := 0, math.Inf(1)
	for i, p := range pts {
		if d := DistanceKm(q, p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func TestDistanceTrigBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		a := Point{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180}
		b := Point{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180}
		if i%3 == 0 { // the regime the simulator lives in: close pairs
			b = Point{Lat: a.Lat + r.NormFloat64()*0.05, Lon: a.Lon + r.NormFloat64()*0.05}
		}
		want := DistanceKm(a, b)
		got := DistanceTrigKm(NewTrigPoint(a), NewTrigPoint(b))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DistanceTrigKm(%v, %v) = %v, DistanceKm = %v", a, b, got, want)
		}
	}
}

// pointSet is one family of indexed points plus the box its random
// queries are drawn from (deliberately larger than the points' own).
type pointSet struct {
	name  string
	pts   []Point
	query BoundingBox
}

func uniformPoints(r *rand.Rand, n int, box BoundingBox) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Lat: box.MinLat + r.Float64()*(box.MaxLat-box.MinLat),
			Lon: box.MinLon + r.Float64()*(box.MaxLon-box.MinLon),
		}
	}
	return pts
}

func testPointSets(r *rand.Rand) []pointSet {
	country := BoundingBox{MinLat: 49.9, MinLon: -6.4, MaxLat: 58.7, MaxLon: 1.8}
	wide := BoundingBox{MinLat: 45, MinLon: -15, MaxLat: 63, MaxLon: 10}
	sets := []pointSet{
		{"country-320", uniformPoints(r, 320, country), wide},
		{"country-40", uniformPoints(r, 40, country), wide},
		{"country-7", uniformPoints(r, 7, country), wide},
		{"two", uniformPoints(r, 2, country), wide},
	}

	// Clustered: most cells empty, a few crowded.
	var clustered []Point
	for c := 0; c < 6; c++ {
		centre := uniformPoints(r, 1, country)[0]
		for i := 0; i < 40; i++ {
			clustered = append(clustered, Point{
				Lat: centre.Lat + r.NormFloat64()*0.08,
				Lon: centre.Lon + r.NormFloat64()*0.12,
			})
		}
	}
	sets = append(sets, pointSet{"clustered", clustered, wide})

	// A lattice: exact distance ties between neighbours are the norm for
	// queries on cell borders and lattice midpoints.
	var lattice []Point
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			lattice = append(lattice, Point{Lat: 50 + float64(i)*0.5, Lon: -4 + float64(j)*0.5})
		}
	}
	sets = append(sets, pointSet{"lattice", lattice, BoundingBox{MinLat: 49, MinLon: -5, MaxLat: 57, MaxLon: 3}})

	// Duplicated centres: every location appears three times, shuffled.
	dup := uniformPoints(r, 50, country)
	dup = append(append(dup, dup...), dup...)
	r.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
	sets = append(sets, pointSet{"duplicates", dup, wide})

	// Degenerate axes: one meridian, one parallel, one location.
	var meridian, parallel []Point
	for i := 0; i < 30; i++ {
		meridian = append(meridian, Point{Lat: 40 + r.Float64()*20, Lon: 2.5})
		parallel = append(parallel, Point{Lat: 51.25, Lon: -10 + r.Float64()*20})
	}
	sets = append(sets,
		pointSet{"meridian", meridian, wide},
		pointSet{"parallel", parallel, wide},
		pointSet{"single", []Point{{Lat: 52, Lon: 0}}, wide},
		pointSet{"coincident", []Point{{52, 0}, {52, 0}, {52, 0}}, wide},
	)

	// Hard geography: both poles' neighbourhoods, the antimeridian seam,
	// and the whole globe (where the longitude bound must give way).
	sets = append(sets,
		pointSet{"arctic", uniformPoints(r, 60, BoundingBox{MinLat: 80, MinLon: -180, MaxLat: 90, MaxLon: 180}),
			BoundingBox{MinLat: 70, MinLon: -180, MaxLat: 90, MaxLon: 180}},
		pointSet{"antimeridian", append(
			uniformPoints(r, 30, BoundingBox{MinLat: -20, MinLon: 170, MaxLat: 20, MaxLon: 180}),
			uniformPoints(r, 30, BoundingBox{MinLat: -20, MinLon: -180, MaxLat: 20, MaxLon: -170})...),
			BoundingBox{MinLat: -30, MinLon: -180, MaxLat: 30, MaxLon: 180}},
		pointSet{"globe", uniformPoints(r, 200, BoundingBox{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}),
			BoundingBox{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}},
	)
	return sets
}

func checkNearest(t *testing.T, set string, ix *NearestIndex, pts []Point, q Point) {
	t.Helper()
	if got, want := ix.Nearest(q), linearNearest(pts, q); got != want {
		t.Fatalf("%s: Nearest(%v) = %d (%.9f km), linear scan = %d (%.9f km)",
			set, q, got, DistanceKm(q, pts[got]), want, DistanceKm(q, pts[want]))
	}
}

// TestNearestIndexMatchesLinearScan is the exactness property: over a
// million seeded queries across well-spread, clustered, tied, duplicated,
// degenerate and wrap-around point sets, the index returns the linear
// scan's answer — index, not merely distance.
func TestNearestIndexMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(20240907))
	total := 0
	for _, set := range testPointSets(r) {
		// The oracle costs O(points) per query: the nine small sets take
		// 100k queries each, the five large ones 25k, > 10⁶ in all.
		perSet := 100000
		if len(set.pts) > 100 {
			perSet = 25000
		}
		if testing.Short() {
			perSet /= 20
		}
		ix := NewNearestIndex(set.pts)
		for i := 0; i < perSet; i++ {
			q := uniformPoints(r, 1, set.query)[0]
			if i%4 == 0 { // on top of / right beside an indexed point
				q = set.pts[r.Intn(len(set.pts))]
				if i%8 == 0 {
					q.Lat += r.NormFloat64() * 1e-7
					q.Lon += r.NormFloat64() * 1e-7
				}
			}
			checkNearest(t, set.name, ix, set.pts, q)
			total++
		}
	}
	if !testing.Short() && total < 1_000_000 {
		t.Fatalf("only %d queries checked", total)
	}
}

// TestNearestIndexAdversarial aims queries at the places a grid search
// goes wrong: cell borders and corners, the bounding box's edges and
// corners, far outside it, exact midpoints between points (distance
// ties), and non-coordinates.
func TestNearestIndexAdversarial(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, set := range testPointSets(r) {
		ix := NewNearestIndex(set.pts)
		var qs []Point

		// Every grid line crossing, and a hair to each side of it.
		for y := 0; y <= ix.nLat; y++ {
			for x := 0; x <= ix.nLon; x++ {
				lat := ix.minLat + float64(y)*ix.cellLat
				lon := ix.minLon + float64(x)*ix.cellLon
				for _, dLat := range []float64{0, -1e-12, 1e-12} {
					for _, dLon := range []float64{0, -1e-12, 1e-12} {
						qs = append(qs, Point{Lat: lat + dLat, Lon: lon + dLon})
					}
				}
			}
		}
		// Midpoints of random pairs: equidistant up to rounding.
		for i := 0; i < 2000; i++ {
			a, b := set.pts[r.Intn(len(set.pts))], set.pts[r.Intn(len(set.pts))]
			qs = append(qs, Point{Lat: (a.Lat + b.Lat) / 2, Lon: (a.Lon + b.Lon) / 2})
		}
		// Far outside, the coordinate system's corners, and junk.
		qs = append(qs,
			Point{90, 0}, Point{-90, 0}, Point{0, 180}, Point{0, -180},
			Point{90, 180}, Point{-90, -180}, Point{0, 0}, Point{-45, 120},
			Point{91, 0}, Point{0, 400}, Point{-1e9, 1e9},
			Point{math.NaN(), 0}, Point{0, math.NaN()}, Point{math.Inf(1), math.Inf(-1)},
		)
		for _, q := range qs {
			checkNearest(t, set.name, ix, set.pts, q)
		}
	}
}

// TestNearestIndexTieRule pins the tie rule on points at exactly equal
// distance: the lowest index wins whatever order the cells are visited in.
func TestNearestIndexTieRule(t *testing.T) {
	// Four points symmetric about the origin: the query at the centre is
	// equidistant from all of them, and from pairs along the axes.
	pts := []Point{{1, 1}, {-1, -1}, {1, -1}, {-1, 1}, {1, 1}}
	ix := NewNearestIndex(pts)
	for _, q := range []Point{{0, 0}, {1, 0}, {0, 1}, {-1, 0}, {0, -1}, {1, 1}} {
		checkNearest(t, "symmetric", ix, pts, q)
	}
	if got := ix.Nearest(Point{1, 1}); got != 0 {
		t.Fatalf("duplicate of point 0 won: %d", got)
	}
}

func TestNearestIndexEmptyAndInvalidPoints(t *testing.T) {
	if got := NewNearestIndex(nil).Nearest(Point{1, 2}); got != -1 {
		t.Fatalf("empty set: %d", got)
	}
	// Invalid members disable pruning but not correctness; NaN members
	// can never win, as in the linear scan.
	r := rand.New(rand.NewSource(5))
	pts := uniformPoints(r, 50, BoundingBox{MinLat: 40, MinLon: -5, MaxLat: 50, MaxLon: 5})
	pts[3] = Point{Lat: math.NaN(), Lon: 1}
	pts[17] = Point{Lat: 120, Lon: 2}
	pts[30] = Point{Lat: 45, Lon: math.Inf(1)}
	ix := NewNearestIndex(pts)
	for i := 0; i < 5000; i++ {
		q := uniformPoints(r, 1, BoundingBox{MinLat: 30, MinLon: -20, MaxLat: 60, MaxLon: 20})[0]
		checkNearest(t, "invalid-members", ix, pts, q)
	}
	allBad := []Point{{math.NaN(), 0}, {0, math.NaN()}}
	checkNearest(t, "all-NaN", NewNearestIndex(allBad), allBad, Point{1, 1})
}
