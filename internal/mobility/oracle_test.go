package mobility

import (
	"math"
	"sort"
	"testing"
	"time"

	"telcolens/internal/devices"
	"telcolens/internal/geo"
	"telcolens/internal/randx"
	"telcolens/internal/subscribers"
	"telcolens/internal/topology"
)

// oraclePlanner is the planner's geometry in its original brute-force
// form — geo.DistanceKm per pair, a linear scan of every district centre
// per excursion step, freshly allocated buffers, reflective sort — kept
// as the reference the indexed, tabulated Planner must reproduce move for
// move while consuming the RNG stream in the same order.
type oraclePlanner struct {
	p       *Planner
	centers []geo.Point
}

func newOraclePlanner(w *testWorld) *oraclePlanner {
	o := &oraclePlanner{p: w.planner}
	for _, d := range w.country.Districts {
		o.centers = append(o.centers, d.Center)
	}
	return o
}

func (o *oraclePlanner) nearestDistrict(pt geo.Point) int {
	best := 0
	bestD := math.Inf(1)
	for i, c := range o.centers {
		if d := geo.DistanceKm(pt, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func (o *oraclePlanner) planDay(r *randx.Rand, ue *subscribers.UE, model *devices.Model, day int) DayPlan {
	p := o.p
	params := classTable[ue.Class]
	rate := params.meanMoves * typeRate[model.Type] * DailyVolumeFactor(day) * model.Quirk.HOMult
	n := r.Poisson(rate)
	if n == 0 {
		return DayPlan{}
	}
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = SampleOffset(r, day)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })

	moves := make([]Move, 0, n)
	cur := ue.HomeSite
	var excursion topology.SiteID
	hasExcursion := false
	if params.jumpKm > 0 && n >= 4 {
		excursion, hasExcursion = o.pickExcursionSite(r, ue, params)
	}
	for i, off := range offsets {
		var next topology.SiteID
		switch {
		case r.Bool(params.intraSitePr):
			next = cur
		case hasExcursion:
			next = o.excursionStep(r, ue, cur, excursion, float64(i)/float64(n))
		default:
			next = p.neighborStep(r, cur)
		}
		moves = append(moves, Move{Offset: off, From: cur, To: next})
		cur = next
	}
	return DayPlan{Moves: moves}
}

func (o *oraclePlanner) pickExcursionSite(r *randx.Rand, ue *subscribers.UE, params classParams) (topology.SiteID, bool) {
	p := o.p
	homeLoc := p.net.Site(ue.HomeSite).Loc
	targetKm := r.LogNormal(math.Log(params.jumpKm), 0.6)
	if !params.crossDist {
		sites := p.net.SitesInDistrict(ue.HomeDistrict)
		if len(sites) == 0 {
			return 0, false
		}
		best := sites[r.Intn(len(sites))]
		bestMismatch := math.Abs(geo.DistanceKm(homeLoc, p.net.Site(best).Loc) - targetKm)
		for attempt := 0; attempt < 11; attempt++ {
			cand := sites[r.Intn(len(sites))]
			m := math.Abs(geo.DistanceKm(homeLoc, p.net.Site(cand).Loc) - targetKm)
			if m < bestMismatch {
				best, bestMismatch = cand, m
			}
		}
		return best, true
	}
	score := func(cand int) float64 {
		d := geo.DistanceKm(homeLoc, o.centers[cand])
		mismatch := math.Abs(d-targetKm) / (targetKm + 1)
		return p.districtWeights[cand] / (1 + 10*mismatch*mismatch)
	}
	best := ue.HomeDistrict
	bestScore := score(best)
	for attempt := 0; attempt < 12; attempt++ {
		cand := r.Intn(len(o.centers))
		if s := score(cand); s > bestScore {
			best, bestScore = cand, s
		}
	}
	sites := p.net.SitesInDistrict(best)
	if len(sites) == 0 {
		return 0, false
	}
	return sites[r.Intn(len(sites))], true
}

func (o *oraclePlanner) excursionStep(r *randx.Rand, ue *subscribers.UE, cur, excursion topology.SiteID, progress float64) topology.SiteID {
	p := o.p
	homeLoc := p.net.Site(ue.HomeSite).Loc
	excLoc := p.net.Site(excursion).Loc
	var targetFrac float64
	switch {
	case progress < 0.4:
		targetFrac = progress / 0.4
	case progress < 0.6:
		targetFrac = 1
	default:
		targetFrac = (1 - progress) / 0.4
	}
	target := geo.Point{
		Lat: homeLoc.Lat + (excLoc.Lat-homeLoc.Lat)*targetFrac,
		Lon: homeLoc.Lon + (excLoc.Lon-homeLoc.Lon)*targetFrac,
	}
	sites := p.net.SitesInDistrict(o.nearestDistrict(target))
	if len(sites) == 0 {
		return p.neighborStep(r, cur)
	}
	cand := sites[r.Intn(len(sites))]
	best := cand
	bestD := geo.DistanceKm(p.net.Site(cand).Loc, target)
	for i := 0; i < 3; i++ {
		c := sites[r.Intn(len(sites))]
		if d := geo.DistanceKm(p.net.Site(c).Loc, target); d < bestD {
			best, bestD = c, d
		}
	}
	if nbs := p.net.NeighborSites(best); len(nbs) > 0 && r.Bool(0.6) {
		return nbs[r.Intn(len(nbs))]
	}
	return best
}

// TestPlanDayMatchesLinearOracle drives the Planner and the brute-force
// oracle from identically seeded RNG streams over every mobility class:
// the plans must be equal move for move, and the streams must be in the
// same state afterwards (same number of draws, in the same order).
func TestPlanDayMatchesLinearOracle(t *testing.T) {
	w := buildWorld(t)
	oracle := newOraclePlanner(w)
	var scratch Scratch
	perClass := map[subscribers.MobilityClass]int{}
	moves := 0
	for i := range w.pop.UEs {
		ue := &w.pop.UEs[i]
		if perClass[ue.Class] >= 400 {
			continue
		}
		perClass[ue.Class]++
		model := w.pop.Model(ue)
		for _, day := range []int{i % 28, 5} { // a weekday-or-not and a Saturday
			seed := uint64(i)<<8 | uint64(day)
			ra, rb := randx.New(seed), randx.New(seed)
			got := w.planner.PlanDay(ra, ue, model, day, &scratch)
			want := oracle.planDay(rb, ue, model, day)
			if len(got.Moves) != len(want.Moves) {
				t.Fatalf("UE %d (%v) day %d: %d moves, oracle %d", i, ue.Class, day, len(got.Moves), len(want.Moves))
			}
			for m := range got.Moves {
				if got.Moves[m] != want.Moves[m] {
					t.Fatalf("UE %d (%v) day %d move %d: %+v, oracle %+v", i, ue.Class, day, m, got.Moves[m], want.Moves[m])
				}
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatalf("UE %d (%v) day %d: RNG streams diverged", i, ue.Class, day)
			}
			moves += len(got.Moves)
		}
	}
	for _, c := range []subscribers.MobilityClass{subscribers.Stationary, subscribers.Local,
		subscribers.Commuter, subscribers.LongDistance, subscribers.HighSpeed} {
		if perClass[c] == 0 {
			t.Fatalf("no %v UE in the test population", c)
		}
	}
	if moves < 10000 {
		t.Fatalf("only %d moves compared", moves)
	}
}

// TestPlanDayScratchReuse checks the Scratch contract: plans built into
// a reused Scratch equal plans built into fresh memory.
func TestPlanDayScratchReuse(t *testing.T) {
	w := buildWorld(t)
	var scratch Scratch
	for i := 0; i < 500; i++ {
		ue := &w.pop.UEs[i]
		model := w.pop.Model(ue)
		got := w.planner.PlanDay(randx.New(uint64(i)), ue, model, i%28, &scratch)
		want := w.planner.PlanDay(randx.New(uint64(i)), ue, model, i%28, nil)
		if len(got.Moves) != len(want.Moves) {
			t.Fatalf("UE %d: %d moves with scratch, %d without", i, len(got.Moves), len(want.Moves))
		}
		for m := range got.Moves {
			if got.Moves[m] != want.Moves[m] {
				t.Fatalf("UE %d move %d differs with scratch", i, m)
			}
		}
	}
}
