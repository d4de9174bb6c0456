package mobility

import (
	"math"
	"sort"
	"testing"
	"time"

	"telcolens/internal/census"
	"telcolens/internal/devices"
	"telcolens/internal/geo"
	"telcolens/internal/randx"
	"telcolens/internal/subscribers"
	"telcolens/internal/topology"
)

// VisitsOf converts a day plan into time-weighted visits for the mobility
// metrics: each move's destination is occupied until the next move (the
// final site until end of day), and the starting site from midnight to the
// first move.
func (p *Planner) VisitsOf(plan DayPlan, home topology.SiteID) []geo.Visit {
	const dayMs = 24 * 60 * 60 * 1000
	if len(plan.Moves) == 0 {
		return []geo.Visit{{Loc: p.net.Site(home).Loc, Weight: dayMs}}
	}
	visits := make([]geo.Visit, 0, len(plan.Moves)+1)
	first := plan.Moves[0]
	visits = append(visits, geo.Visit{
		Loc:    p.net.Site(first.From).Loc,
		Weight: float64(first.Offset.Milliseconds()),
	})
	for i, mv := range plan.Moves {
		end := int64(dayMs)
		if i+1 < len(plan.Moves) {
			end = plan.Moves[i+1].Offset.Milliseconds()
		}
		w := float64(end - mv.Offset.Milliseconds())
		if w < 0 {
			w = 0
		}
		visits = append(visits, geo.Visit{Loc: p.net.Site(mv.To).Loc, Weight: w})
	}
	return visits
}

func TestIntensityProfiles(t *testing.T) {
	wd := Intensity(0) // Monday
	we := Intensity(5) // Saturday

	// Weekday peak at 08:00-08:30 (bin 16).
	peakBin := 0
	for b, v := range wd {
		if v > wd[peakBin] {
			peakBin = b
		}
	}
	if peakBin != 16 {
		t.Fatalf("weekday peak at bin %d (%.1fh), want 16 (08:00)", peakBin, float64(peakBin)/2)
	}
	// ×3 ramp between 06:00 and 08:00.
	if ratio := wd[16] / wd[12]; ratio < 2.5 || ratio > 4 {
		t.Fatalf("06:00→08:00 ramp = %.2f, want ≈3", ratio)
	}
	// Secondary peak near 15:00-15:30 exceeds its surroundings.
	if wd[30] <= wd[26] || wd[30] <= wd[36] {
		t.Fatal("no afternoon secondary peak")
	}
	// Trough in the 02:00-03:30 region.
	troughBin := 0
	for b, v := range wd {
		if v < wd[troughBin] {
			troughBin = b
		}
	}
	if troughBin < 4 || troughBin > 7 {
		t.Fatalf("weekday trough at bin %d, want 02:00-03:30", troughBin)
	}

	// Weekend: single midday peak, ≈33% lower than weekday peak.
	wePeak := 0
	for b, v := range we {
		if v > we[wePeak] {
			wePeak = b
		}
	}
	if wePeak < 24 || wePeak > 26 {
		t.Fatalf("weekend peak at bin %d, want 12:00-13:00", wePeak)
	}
	if drop := 1 - we[wePeak]/wd[16]; math.Abs(drop-0.33) > 0.05 {
		t.Fatalf("weekend peak reduction = %.3f, want ≈0.33", drop)
	}
}

func TestIsWeekend(t *testing.T) {
	// Study starts Monday 29-Jan-2024.
	weekends := []int{5, 6, 12, 13, 19, 20, 26, 27}
	asSet := make(map[int]bool)
	for _, d := range weekends {
		asSet[d] = true
	}
	for day := 0; day < 28; day++ {
		if IsWeekend(day) != asSet[day] {
			t.Fatalf("IsWeekend(%d) wrong", day)
		}
	}
}

func TestDailyVolumeFactor(t *testing.T) {
	if f := DailyVolumeFactor(0); f != 1 {
		t.Fatalf("weekday factor = %g", f)
	}
	f := DailyVolumeFactor(5)
	if f >= 1 || f < 0.5 {
		t.Fatalf("weekend factor = %g, want (0.5,1)", f)
	}
}

func TestSampleOffsetDistribution(t *testing.T) {
	r := randx.New(5)
	var counts [BinsPerDay]int
	const n = 200000
	for i := 0; i < n; i++ {
		off := SampleOffset(r, 0)
		if off < 0 || off >= 24*time.Hour {
			t.Fatalf("offset %v out of day", off)
		}
		counts[int(off/(30*time.Minute))]++
	}
	// Peak bin (08:00) must see far more moves than the trough.
	if counts[16] < 5*counts[5] {
		t.Fatalf("peak/trough ratio too small: %d vs %d", counts[16], counts[5])
	}
}

type testWorld struct {
	country *census.Country
	net     *topology.Network
	catalog *devices.Catalog
	pop     *subscribers.Population
	planner *Planner
}

func buildWorld(t testing.TB) *testWorld {
	t.Helper()
	country, err := census.Generate(census.DefaultGenConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Generate(topology.DefaultGenConfig(42), country)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := devices.GenerateCatalog(42)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := subscribers.Generate(42, 4000, country, net, catalog)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(country, net)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{country, net, catalog, pop, planner}
}

func TestPlanDayBasicInvariants(t *testing.T) {
	w := buildWorld(t)
	r := randx.New(1)
	for i := 0; i < 500; i++ {
		ue := &w.pop.UEs[i%w.pop.Len()]
		model := w.pop.Model(ue)
		plan := w.planner.PlanDay(r, ue, model, i%28, nil)
		var prev time.Duration = -1
		cur := ue.HomeSite
		for _, mv := range plan.Moves {
			if mv.Offset < prev {
				t.Fatal("moves not time-ordered")
			}
			prev = mv.Offset
			if mv.Offset < 0 || mv.Offset >= 24*time.Hour {
				t.Fatalf("move offset %v outside day", mv.Offset)
			}
			if mv.From != cur {
				t.Fatal("move chain broken: From != current site")
			}
			if w.net.Site(mv.To) == nil {
				t.Fatal("move to unknown site")
			}
			cur = mv.To
		}
	}
}

func TestMobilityMetricsByDeviceType(t *testing.T) {
	w := buildWorld(t)
	r := randx.New(9)

	sectorsOf := make(map[devices.DeviceType][]float64)
	gyrationOf := make(map[devices.DeviceType][]float64)

	for i := 0; i < 3000; i++ {
		ue := &w.pop.UEs[i%w.pop.Len()]
		model := w.pop.Model(ue)
		plan := w.planner.PlanDay(r, ue, model, 2, nil) // a Wednesday
		// Distinct sites visited as a proxy for distinct sectors (each
		// site visit lands on a sector of that site).
		distinct := map[topology.SiteID]bool{}
		distinct[ue.HomeSite] = true
		for _, mv := range plan.Moves {
			distinct[mv.To] = true
		}
		visits := w.planner.VisitsOf(plan, ue.HomeSite)
		g := geo.RadiusOfGyrationKm(visits)
		sectorsOf[model.Type] = append(sectorsOf[model.Type], float64(len(distinct)))
		gyrationOf[model.Type] = append(gyrationOf[model.Type], g)
	}

	med := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}

	// Fig 10 calibration. The paper's metric counts distinct *sectors*;
	// each site hosts three sectors per RAT, so the site-level count here
	// runs ≈2× lower than the sector-level metric the analysis computes
	// (smartphones: ~22 sectors/day median ⇒ ~8-15 sites).
	smartMed := med(sectorsOf[devices.Smartphone])
	if smartMed < 7 || smartMed > 30 {
		t.Errorf("smartphone median visited sites = %.0f, want ≈8-15", smartMed)
	}
	m2mMed := med(sectorsOf[devices.M2MIoT])
	if m2mMed > 4 {
		t.Errorf("M2M median visited sites = %.0f, want ≈1-2", m2mMed)
	}
	featMed := med(sectorsOf[devices.FeaturePhone])
	if featMed > smartMed {
		t.Errorf("feature median %.0f exceeds smartphone median %.0f", featMed, smartMed)
	}

	// Gyration medians: smartphones ≈2.7 km, M2M ≈0.
	smartG := med(gyrationOf[devices.Smartphone])
	if smartG < 0.5 || smartG > 12 {
		t.Errorf("smartphone median gyration = %.2f km, want ≈2.7", smartG)
	}
	m2mG := med(gyrationOf[devices.M2MIoT])
	if m2mG > 1 {
		t.Errorf("M2M median gyration = %.2f km, want ≈0", m2mG)
	}
}

func TestWeekendReducesMoves(t *testing.T) {
	w := buildWorld(t)
	count := func(day int, seed uint64) int {
		r := randx.New(seed)
		total := 0
		for i := 0; i < 800; i++ {
			ue := &w.pop.UEs[i%w.pop.Len()]
			model := w.pop.Model(ue)
			total += len(w.planner.PlanDay(r, ue, model, day, nil).Moves)
		}
		return total
	}
	wd := count(2, 7) // Wednesday
	we := count(6, 7) // Sunday
	if float64(we) > 0.92*float64(wd) {
		t.Fatalf("weekend moves (%d) not clearly below weekday (%d)", we, wd)
	}
}

func TestVisitsOfWeights(t *testing.T) {
	w := buildWorld(t)
	ue := &w.pop.UEs[0]
	// Empty plan: one full-day visit at home.
	visits := w.planner.VisitsOf(DayPlan{}, ue.HomeSite)
	if len(visits) != 1 {
		t.Fatalf("%d visits for empty plan", len(visits))
	}
	const dayMs = 24 * 60 * 60 * 1000
	if visits[0].Weight != dayMs {
		t.Fatalf("empty-plan weight = %g", visits[0].Weight)
	}
	// Total visit weight always equals the full day.
	r := randx.New(3)
	model := w.pop.Model(ue)
	for day := 0; day < 5; day++ {
		plan := w.planner.PlanDay(r, ue, model, day, nil)
		visits := w.planner.VisitsOf(plan, ue.HomeSite)
		var sum float64
		for _, v := range visits {
			sum += v.Weight
		}
		if math.Abs(sum-dayMs) > 1 {
			t.Fatalf("day %d visit weights sum to %g, want %d", day, sum, dayMs)
		}
	}
}

func TestHighSpeedTravelsFar(t *testing.T) {
	w := buildWorld(t)
	r := randx.New(11)
	// Find a high-speed M2M UE, or force one.
	var ue *subscribers.UE
	for i := range w.pop.UEs {
		if w.pop.UEs[i].Class == subscribers.HighSpeed {
			ue = &w.pop.UEs[i]
			break
		}
	}
	if ue == nil {
		t.Skip("no high-speed UE in sample")
	}
	model := w.pop.Model(ue)
	maxG := 0.0
	for day := 0; day < 5; day++ {
		plan := w.planner.PlanDay(r, ue, model, day, nil)
		g := geo.RadiusOfGyrationKm(w.planner.VisitsOf(plan, ue.HomeSite))
		if g > maxG {
			maxG = g
		}
	}
	if maxG < 30 {
		t.Fatalf("high-speed UE max gyration = %.1f km, want long-range travel", maxG)
	}
}

func TestPlannerErrors(t *testing.T) {
	if _, err := NewPlanner(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

func BenchmarkPlanDay(b *testing.B) {
	w := buildWorld(b)
	r := randx.New(1)
	var scratch Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ue := &w.pop.UEs[i%w.pop.Len()]
		model := w.pop.Model(ue)
		_ = w.planner.PlanDay(r, ue, model, i%28, &scratch)
	}
}
