package geo

import (
	"math"
	"testing"
	"testing/quick"
)

var (
	madrid = Point{40.4168, -3.7038}
	barca  = Point{41.3874, 2.1686}
)

func TestDistanceKnownPair(t *testing.T) {
	// Madrid–Barcelona great-circle distance is ~505 km.
	d := DistanceKm(madrid, barca)
	if d < 495 || d < 0 || d > 515 {
		t.Fatalf("Madrid-Barcelona distance = %.1f km, want ~505", d)
	}
}

func TestDistanceIdentity(t *testing.T) {
	if d := DistanceKm(madrid, madrid); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clamp(lat1, -90, 90), clamp(lon1, -180, 180)}
		b := Point{clamp(lat2, -90, 90), clamp(lon2, -180, 180)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceNonNegativeAndBounded(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clamp(lat1, -90, 90), clamp(lon1, -180, 180)}
		b := Point{clamp(lat2, -90, 90), clamp(lon2, -180, 180)}
		d := DistanceKm(a, b)
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		// use three fixed-ish points derived from seed
		s := float64(seed%1000) / 1000
		a := Point{40 + s, -3 + s}
		b := Point{41 - s, -2 + s/2}
		c := Point{39 + s/3, -4 - s/4}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	p := Offset(madrid, 10, 0)
	if d := DistanceKm(madrid, p); math.Abs(d-10) > 0.01 {
		t.Fatalf("north offset distance = %.4f, want 10", d)
	}
	p = Offset(madrid, 0, 25)
	if d := DistanceKm(madrid, p); math.Abs(d-25) > 0.1 {
		t.Fatalf("east offset distance = %.4f, want 25", d)
	}
}

func TestCenterOfMassSinglePoint(t *testing.T) {
	cm, ok := CenterOfMass([]Visit{{Loc: madrid, Weight: 5}})
	if !ok {
		t.Fatal("no center for single weighted visit")
	}
	if d := DistanceKm(cm, madrid); d > 1e-9 {
		t.Fatalf("center of single visit off by %g km", d)
	}
}

func TestCenterOfMassEmpty(t *testing.T) {
	if _, ok := CenterOfMass(nil); ok {
		t.Fatal("center of empty visits reported ok")
	}
	if _, ok := CenterOfMass([]Visit{{Loc: madrid, Weight: 0}}); ok {
		t.Fatal("center of zero-weight visits reported ok")
	}
}

func TestCenterOfMassMidpoint(t *testing.T) {
	a := Point{40, -3}
	b := Offset(a, 10, 0)
	cm, ok := CenterOfMass([]Visit{{a, 1}, {b, 1}})
	if !ok {
		t.Fatal("no center")
	}
	if d := math.Abs(DistanceKm(a, cm) - 5); d > 0.05 {
		t.Fatalf("midpoint off: dist from a = %.4f, want 5", DistanceKm(a, cm))
	}
}

func TestCenterOfMassWeighting(t *testing.T) {
	a := Point{40, -3}
	b := Offset(a, 12, 0)
	// 3x weight at a pulls the center to 1/4 of the way toward b.
	cm, _ := CenterOfMass([]Visit{{a, 3}, {b, 1}})
	if d := DistanceKm(a, cm); math.Abs(d-3) > 0.05 {
		t.Fatalf("weighted center at %.3f km from a, want 3", d)
	}
}

func TestGyrationZeroCases(t *testing.T) {
	if g := RadiusOfGyrationKm(nil); g != 0 {
		t.Fatalf("gyration(nil) = %g", g)
	}
	if g := RadiusOfGyrationKm([]Visit{{madrid, 10}}); g > 1e-9 {
		t.Fatalf("gyration(single) = %g", g)
	}
	same := []Visit{{madrid, 1}, {madrid, 2}, {madrid, 3}}
	if g := RadiusOfGyrationKm(same); g > 1e-9 {
		t.Fatalf("gyration(same place) = %g", g)
	}
}

func TestGyrationTwoPointsEqualWeight(t *testing.T) {
	a := Point{40, -3}
	b := Offset(a, 10, 0)
	g := RadiusOfGyrationKm([]Visit{{a, 1}, {b, 1}})
	if math.Abs(g-5) > 0.05 {
		t.Fatalf("gyration = %.4f, want 5", g)
	}
}

func TestGyrationScaleInvariantToWeightScaling(t *testing.T) {
	a := Point{40, -3}
	b := Offset(a, 8, 6)
	c := Offset(a, -4, 2)
	v1 := []Visit{{a, 1}, {b, 2}, {c, 3}}
	v2 := []Visit{{a, 10}, {b, 20}, {c, 30}}
	g1, g2 := RadiusOfGyrationKm(v1), RadiusOfGyrationKm(v2)
	if math.Abs(g1-g2) > 1e-9 {
		t.Fatalf("gyration not weight-scale invariant: %g vs %g", g1, g2)
	}
}

func TestGyrationNonNegativeProperty(t *testing.T) {
	f := func(dn1, de1, dn2, de2, w1, w2 float64) bool {
		base := Point{40, -3}
		v := []Visit{
			{Offset(base, clamp(dn1, -100, 100), clamp(de1, -100, 100)), clamp(math.Abs(w1), 0, 1e9)},
			{Offset(base, clamp(dn2, -100, 100), clamp(de2, -100, 100)), clamp(math.Abs(w2), 0, 1e9)},
		}
		return RadiusOfGyrationKm(v) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGyrationIgnoresNonPositiveWeights(t *testing.T) {
	a := Point{40, -3}
	b := Offset(a, 10, 0)
	far := Offset(a, 5000, 0)
	g1 := RadiusOfGyrationKm([]Visit{{a, 1}, {b, 1}})
	g2 := RadiusOfGyrationKm([]Visit{{a, 1}, {b, 1}, {far, 0}, {far, -2}})
	if math.Abs(g1-g2) > 1e-9 {
		t.Fatalf("non-positive weights changed gyration: %g vs %g", g1, g2)
	}
}

func TestBoundingBox(t *testing.T) {
	b := BoundingBox{MinLat: 39, MinLon: -4, MaxLat: 41, MaxLon: -2}
	c := b.Center()
	if c.Lat != 40 || c.Lon != -3 {
		t.Fatalf("center = %+v", c)
	}
	// Height of 2 degrees latitude is ~222 km.
	if h := b.HeightKm(); math.Abs(h-222.4) > 2 {
		t.Fatalf("height = %.1f", h)
	}
}

func TestPointValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90.01, 0}, false},
		{Point{0, 180.5}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRadiusOfGyrationTrigBitIdentical(t *testing.T) {
	// The precomputed-trig gyration path must be bit-identical to the
	// reference implementation — the analysis engine's byte-identity
	// guarantees (TestIncrementalEqualsFull, the determinism matrix)
	// depend on this exactness, not on an epsilon.
	f := func(seed int64) bool {
		r := seed
		next := func() float64 {
			// xorshift-ish deterministic doubles in [0,1)
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			return float64(uint64(r)%1e9) / 1e9
		}
		n := int(uint64(seed)%60) + 1
		visits := make([]Visit, n)
		trig := make([]TrigVisit, n)
		for i := range visits {
			p := Point{Lat: 35 + next()*10, Lon: -9 + next()*12}
			w := next() * 1e4
			if i%7 == 0 {
				w = 0 // exercise the non-positive-weight skip
			}
			visits[i] = Visit{Loc: p, Weight: w}
			latRad, lonRad, cosLat := PrecomputeTrig(p)
			trig[i] = TrigVisit{Loc: p, LatRad: latRad, LonRad: lonRad, CosLat: cosLat, Weight: w}
		}
		want := RadiusOfGyrationKm(visits)
		got := RadiusOfGyrationTrigKm(trig)
		return math.Float64bits(want) == math.Float64bits(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRadiusOfGyrationTrigZeroCases(t *testing.T) {
	if got := RadiusOfGyrationTrigKm(nil); got != 0 {
		t.Fatalf("empty = %g", got)
	}
	latRad, lonRad, cosLat := PrecomputeTrig(madrid)
	one := []TrigVisit{{Loc: madrid, LatRad: latRad, LonRad: lonRad, CosLat: cosLat, Weight: 3}}
	if got := RadiusOfGyrationTrigKm(one); got != 0 {
		t.Fatalf("single point = %g", got)
	}
	zero := []TrigVisit{{Loc: madrid, LatRad: latRad, LonRad: lonRad, CosLat: cosLat, Weight: 0}}
	if got := RadiusOfGyrationTrigKm(zero); got != 0 {
		t.Fatalf("zero weight = %g", got)
	}
}

func clamp(v, lo, hi float64) float64 {
	if math.IsNaN(v) {
		return lo
	}
	return math.Min(hi, math.Max(lo, v))
}

func BenchmarkDistanceKm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = DistanceKm(madrid, barca)
	}
}

func BenchmarkRadiusOfGyration(b *testing.B) {
	base := Point{40, -3}
	visits := make([]Visit, 50)
	for i := range visits {
		visits[i] = Visit{Offset(base, float64(i), float64(50-i)), 1 + float64(i%5)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RadiusOfGyrationKm(visits)
	}
}
