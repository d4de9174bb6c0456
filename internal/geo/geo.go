// Package geo provides the geographic primitives used by the telcolens
// topology and mobility analysis: WGS84-style coordinates, great-circle
// distance, weighted centers of mass, and the radius of gyration metric the
// paper uses to characterize UE mobility (§3.3).
package geo

import "math"

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm = 6371.0088

// Point is a geographic coordinate in degrees.
type Point struct {
	Lat float64 // latitude, degrees north
	Lon float64 // longitude, degrees east
}

// Valid reports whether the point is a plausible WGS84 coordinate.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometers.
func DistanceKm(a, b Point) float64 {
	lat1, lon1 := deg2rad(a.Lat), deg2rad(a.Lon)
	lat2, lon2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Offset returns the point reached by moving dNorthKm north and dEastKm
// east from p, using an equirectangular approximation that is accurate for
// the intra-country distances the simulator works with.
func Offset(p Point, dNorthKm, dEastKm float64) Point {
	lat := p.Lat + dNorthKm/EarthRadiusKm*180/math.Pi
	lon := p.Lon + dEastKm/(EarthRadiusKm*math.Cos(deg2rad(p.Lat)))*180/math.Pi
	return Point{Lat: lat, Lon: lon}
}

// Visit is one stay at a location, weighted by the time spent there.
// The analysis uses visits to compute centers of mass and gyration radii.
type Visit struct {
	Loc    Point
	Weight float64 // time spent, any consistent unit; must be >= 0
}

// CenterOfMass returns the time-weighted centroid of the visits using a
// local planar approximation around the first visit. It returns the zero
// Point and false if the visits carry no positive weight.
func CenterOfMass(visits []Visit) (Point, bool) {
	if len(visits) == 0 {
		return Point{}, false
	}
	ref := visits[0].Loc
	cosRef := math.Cos(deg2rad(ref.Lat))
	var sumW, sumN, sumE float64
	for _, v := range visits {
		if v.Weight <= 0 {
			continue
		}
		n := (v.Loc.Lat - ref.Lat) * math.Pi / 180 * EarthRadiusKm
		e := (v.Loc.Lon - ref.Lon) * math.Pi / 180 * EarthRadiusKm * cosRef
		sumW += v.Weight
		sumN += n * v.Weight
		sumE += e * v.Weight
	}
	if sumW <= 0 {
		return Point{}, false
	}
	return Offset(ref, sumN/sumW, sumE/sumW), true
}

// RadiusOfGyrationKm computes the paper's mobility metric (§3.3): the
// root-mean-square, time-weighted distance between each visited location and
// the visits' center of mass. A single location (or zero total weight)
// yields 0.
func RadiusOfGyrationKm(visits []Visit) float64 {
	cm, ok := CenterOfMass(visits)
	if !ok {
		return 0
	}
	// Center-side trigonometry is loop-invariant; hoisting it halves the
	// haversine cost per visit. The arithmetic below performs exactly
	// the operations of DistanceKm(v.Loc, cm) in the same order, so the
	// result is bit-identical to the per-pair form.
	latC, lonC := deg2rad(cm.Lat), deg2rad(cm.Lon)
	cosC := math.Cos(latC)
	var sumW, sum float64
	for _, v := range visits {
		if v.Weight <= 0 {
			continue
		}
		lat1, lon1 := deg2rad(v.Loc.Lat), deg2rad(v.Loc.Lon)
		s1 := math.Sin((latC - lat1) / 2)
		s2 := math.Sin((lonC - lon1) / 2)
		h := s1*s1 + math.Cos(lat1)*cosC*s2*s2
		if h > 1 {
			h = 1
		}
		d := 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
		sum += v.Weight * d * d
		sumW += v.Weight
	}
	if sumW <= 0 {
		return 0
	}
	return math.Sqrt(sum / sumW)
}

// TrigVisit is a Visit whose location trigonometry has been precomputed:
// LatRad/LonRad are deg2rad of the location and CosLat is cos(LatRad).
// Callers that visit the same fixed locations many times (e.g. cell
// sectors) tabulate these once via PrecomputeTrig and then use
// RadiusOfGyrationTrigKm, which performs no per-visit Cos on the
// location side.
type TrigVisit struct {
	Loc    Point
	LatRad float64
	LonRad float64
	CosLat float64
	Weight float64
}

// PrecomputeTrig tabulates the trigonometry RadiusOfGyrationTrigKm
// consumes for one location. The stored values are exactly deg2rad(lat),
// deg2rad(lon) and cos(deg2rad(lat)) as RadiusOfGyrationKm would compute
// them inline, so substituting them is bit-identical.
func PrecomputeTrig(p Point) (latRad, lonRad, cosLat float64) {
	latRad = deg2rad(p.Lat)
	lonRad = deg2rad(p.Lon)
	return latRad, lonRad, math.Cos(latRad)
}

// RadiusOfGyrationTrigKm computes exactly RadiusOfGyrationKm over the
// same visits, but consumes precomputed per-location trigonometry: the
// merge loop performs no Sin/Cos of visit coordinates beyond the two
// center-relative Sins of the haversine. Every floating-point operation
// matches RadiusOfGyrationKm in the same order, so the result is
// bit-identical (asserted by TestRadiusOfGyrationTrigBitIdentical).
func RadiusOfGyrationTrigKm(visits []TrigVisit) float64 {
	cm, ok := centerOfMassTrig(visits)
	if !ok {
		return 0
	}
	latC, lonC := deg2rad(cm.Lat), deg2rad(cm.Lon)
	cosC := math.Cos(latC)
	var sumW, sum float64
	for _, v := range visits {
		if v.Weight <= 0 {
			continue
		}
		s1 := math.Sin((latC - v.LatRad) / 2)
		s2 := math.Sin((lonC - v.LonRad) / 2)
		h := s1*s1 + v.CosLat*cosC*s2*s2
		if h > 1 {
			h = 1
		}
		d := 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
		sum += v.Weight * d * d
		sumW += v.Weight
	}
	if sumW <= 0 {
		return 0
	}
	return math.Sqrt(sum / sumW)
}

// centerOfMassTrig mirrors CenterOfMass over TrigVisits. The planar
// reduction uses only the degree-valued Loc fields, so it is the same
// float sequence as CenterOfMass on the equivalent []Visit.
func centerOfMassTrig(visits []TrigVisit) (Point, bool) {
	if len(visits) == 0 {
		return Point{}, false
	}
	ref := visits[0].Loc
	cosRef := math.Cos(deg2rad(ref.Lat))
	var sumW, sumN, sumE float64
	for _, v := range visits {
		if v.Weight <= 0 {
			continue
		}
		n := (v.Loc.Lat - ref.Lat) * math.Pi / 180 * EarthRadiusKm
		e := (v.Loc.Lon - ref.Lon) * math.Pi / 180 * EarthRadiusKm * cosRef
		sumW += v.Weight
		sumN += n * v.Weight
		sumE += e * v.Weight
	}
	if sumW <= 0 {
		return Point{}, false
	}
	return Offset(ref, sumN/sumW, sumE/sumW), true
}

// BoundingBox is an axis-aligned lat/lon rectangle.
type BoundingBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// Center returns the box midpoint.
func (b BoundingBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// WidthKm returns the east-west extent measured at the box's central
// latitude.
func (b BoundingBox) WidthKm() float64 {
	mid := (b.MinLat + b.MaxLat) / 2
	return DistanceKm(Point{mid, b.MinLon}, Point{mid, b.MaxLon})
}

// HeightKm returns the north-south extent.
func (b BoundingBox) HeightKm() float64 {
	return DistanceKm(Point{b.MinLat, b.MinLon}, Point{b.MaxLat, b.MinLon})
}
