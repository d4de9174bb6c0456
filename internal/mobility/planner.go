package mobility

import (
	"fmt"
	"math"
	"slices"
	"time"

	"telcolens/internal/census"
	"telcolens/internal/devices"
	"telcolens/internal/geo"
	"telcolens/internal/randx"
	"telcolens/internal/subscribers"
	"telcolens/internal/topology"
)

// Move is one site transition of a UE during a day. From == To denotes an
// intra-site sector change (still a handover between co-located sectors).
type Move struct {
	Offset time.Duration // time within the day
	From   topology.SiteID
	To     topology.SiteID
}

// DayPlan is a UE's movement for one day, with moves in time order.
type DayPlan struct {
	Moves []Move
}

// Scratch is the reusable memory of PlanDay. A generation worker keeps
// one and passes it to every call, which then allocates nothing in
// steady state; the returned plan's Moves alias the scratch and are
// valid until the next PlanDay with the same Scratch.
type Scratch struct {
	offsets []time.Duration
	moves   []Move
}

// classParams defines per-mobility-class trajectory behaviour.
type classParams struct {
	meanMoves   float64 // Poisson mean of daily site transitions
	jumpKm      float64 // typical excursion distance (commute/trip length scale)
	crossDist   bool    // may leave the home district
	intraSitePr float64 // probability a move is an intra-site sector change
}

var classTable = map[subscribers.MobilityClass]classParams{
	subscribers.Stationary:   {meanMoves: 0.5, jumpKm: 0, crossDist: false, intraSitePr: 0.8},
	subscribers.Local:        {meanMoves: 16, jumpKm: 3, crossDist: false, intraSitePr: 0.25},
	subscribers.Commuter:     {meanMoves: 32, jumpKm: 9, crossDist: true, intraSitePr: 0.15},
	subscribers.LongDistance: {meanMoves: 55, jumpKm: 160, crossDist: true, intraSitePr: 0.10},
	subscribers.HighSpeed:    {meanMoves: 220, jumpKm: 350, crossDist: true, intraSitePr: 0.05},
}

// typeRate scales movement by device type so that Fig 10's per-type
// mobility metrics emerge (feature phones move far less than smartphones).
var typeRate = map[devices.DeviceType]float64{
	devices.Smartphone:   1.0,
	devices.M2MIoT:       0.8,
	devices.FeaturePhone: 0.35,
}

// Planner synthesizes daily movement over the deployed site graph.
//
// Its geometry is precomputed once: every district centre and site is
// tabulated as a geo.TrigPoint, so the haversines of a UE-day do no
// location-side trigonometry, and the "nearest district centre" query
// of every excursion step goes through an exact geo.NearestIndex
// instead of a scan of all centres. Both reproduce geo.DistanceKm to
// the bit, so plans are unchanged (TestPlanDayMatchesLinearOracle).
type Planner struct {
	net     *topology.Network
	country *census.Country

	districtWeights []float64
	districtTrig    []geo.TrigPoint // by district ID
	districtIndex   *geo.NearestIndex
	siteTrig        []geo.TrigPoint // by SiteID
}

// NewPlanner builds a Planner for the given country and deployment.
func NewPlanner(country *census.Country, net *topology.Network) (*Planner, error) {
	if country == nil || net == nil {
		return nil, fmt.Errorf("mobility: nil country or network")
	}
	p := &Planner{net: net, country: country}
	centers := make([]geo.Point, len(country.Districts))
	p.districtWeights = make([]float64, len(country.Districts))
	p.districtTrig = make([]geo.TrigPoint, len(country.Districts))
	for i, d := range country.Districts {
		centers[i] = d.Center
		p.districtWeights[i] = float64(d.Population)
		p.districtTrig[i] = geo.NewTrigPoint(d.Center)
	}
	p.districtIndex = geo.NewNearestIndex(centers)
	p.siteTrig = make([]geo.TrigPoint, len(net.Sites))
	for i := range net.Sites {
		p.siteTrig[i] = geo.NewTrigPoint(net.Sites[i].Loc)
	}
	return p, nil
}

// PlanDay generates the UE's movement for the given study day. The UE
// starts each day at its home site (multi-day trips are abstracted away;
// the paper's mobility metrics are daily). A nil Scratch allocates a
// fresh one.
func (p *Planner) PlanDay(r *randx.Rand, ue *subscribers.UE, model *devices.Model, day int, s *Scratch) DayPlan {
	params := classTable[ue.Class]
	rate := params.meanMoves * typeRate[model.Type] * DailyVolumeFactor(day) * model.Quirk.HOMult
	n := r.Poisson(rate)
	if n == 0 {
		return DayPlan{}
	}
	if s == nil {
		s = new(Scratch)
	}

	// Draw move times from the diurnal profile, then walk the site graph.
	offsets := slices.Grow(s.offsets[:0], n)[:n]
	for i := range offsets {
		offsets[i] = SampleOffset(r, day)
	}
	slices.Sort(offsets)
	s.offsets = offsets

	moves := slices.Grow(s.moves[:0], n)
	cur := ue.HomeSite

	// Excursion anchor for classes that leave home: a remote site the
	// trajectory heads toward during the first part of the day and
	// returns from in the evening.
	var excursion topology.SiteID
	hasExcursion := false
	if params.jumpKm > 0 && n >= 4 {
		excursion, hasExcursion = p.pickExcursionSite(r, ue, params)
	}

	for i, off := range offsets {
		var next topology.SiteID
		switch {
		case r.Bool(params.intraSitePr):
			next = cur // intra-site sector change
		case hasExcursion:
			next = p.excursionStep(r, ue, cur, excursion, float64(i)/float64(n))
		default:
			next = p.neighborStep(r, cur)
		}
		moves = append(moves, Move{Offset: off, From: cur, To: next})
		cur = next
	}
	s.moves = moves
	return DayPlan{Moves: moves}
}

// neighborStep walks to a nearby site (or stays put when isolated).
func (p *Planner) neighborStep(r *randx.Rand, cur topology.SiteID) topology.SiteID {
	nbs := p.net.NeighborSites(cur)
	if len(nbs) == 0 {
		return cur
	}
	// Prefer the closest neighbors: geometric-ish decay over the ranked
	// neighbor list keeps local walks local.
	idx := 0
	for idx < len(nbs)-1 && r.Bool(0.45) {
		idx++
	}
	return nbs[idx]
}

// pickExcursionSite selects the day's destination for commuting/trips.
func (p *Planner) pickExcursionSite(r *randx.Rand, ue *subscribers.UE, params classParams) (topology.SiteID, bool) {
	home := p.siteTrig[ue.HomeSite]
	targetKm := r.LogNormal(math.Log(params.jumpKm), 0.6)

	if !params.crossDist {
		// Stay local: among a handful of same-district candidates, pick
		// the one whose distance from home best matches the trip length.
		sites := p.net.SitesInDistrict(ue.HomeDistrict)
		if len(sites) == 0 {
			return 0, false
		}
		best := sites[r.Intn(len(sites))]
		bestMismatch := math.Abs(geo.DistanceTrigKm(home, p.siteTrig[best]) - targetKm)
		for attempt := 0; attempt < 11; attempt++ {
			cand := sites[r.Intn(len(sites))]
			m := math.Abs(geo.DistanceTrigKm(home, p.siteTrig[cand]) - targetKm)
			if m < bestMismatch {
				best, bestMismatch = cand, m
			}
		}
		return best, true
	}

	// Gravity choice: districts weighted by population and penalized by
	// the mismatch between their distance and the target trip length.
	// The home district competes on equal terms (short trips stay home).
	score := func(cand int) float64 {
		d := geo.DistanceTrigKm(home, p.districtTrig[cand])
		mismatch := math.Abs(d-targetKm) / (targetKm + 1)
		return p.districtWeights[cand] / (1 + 10*mismatch*mismatch)
	}
	best := ue.HomeDistrict
	bestScore := score(best)
	for attempt := 0; attempt < 12; attempt++ {
		cand := r.Intn(len(p.districtTrig))
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

// excursionStep routes the trajectory out toward the excursion site in the
// first 40% of the day's moves, keeps it near the destination until 60%,
// then routes it home.
func (p *Planner) excursionStep(r *randx.Rand, ue *subscribers.UE, cur, excursion topology.SiteID, progress float64) topology.SiteID {
	homeLoc := p.net.Site(ue.HomeSite).Loc
	excLoc := p.net.Site(excursion).Loc

	var targetFrac float64 // position along home→excursion line
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
	// Find a site near the target point: nearest district center, then a
	// random site within it, preferring neighbors of the current site
	// when they get us closer.
	sites := p.net.SitesInDistrict(p.districtIndex.Nearest(target))
	if len(sites) == 0 {
		return p.neighborStep(r, cur)
	}
	cand := sites[r.Intn(len(sites))]
	// Small refinement: among a few candidates, pick the one closest to
	// the target point so routes look continuous.
	best := cand
	targetTrig := geo.NewTrigPoint(target)
	bestD := geo.DistanceTrigKm(p.siteTrig[cand], targetTrig)
	for i := 0; i < 3; i++ {
		c := sites[r.Intn(len(sites))]
		if d := geo.DistanceTrigKm(p.siteTrig[c], targetTrig); d < bestD {
			best, bestD = c, d
		}
	}
	// Disperse across the route's neighborhood: real trajectories visit
	// many distinct sectors along the way, not one site per waypoint.
	if nbs := p.net.NeighborSites(best); len(nbs) > 0 && r.Bool(0.6) {
		return nbs[r.Intn(len(nbs))]
	}
	return best
}
