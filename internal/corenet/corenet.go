// Package corenet simulates the core-network side of the handover
// procedure (§2, Fig 1 and 2): the MME anchoring 4G/5G-NSA mobility, the
// SGSN handling relocations toward 2G/3G, and the MSC terminating SRVCC
// voice continuity. It decides handover targets (including vertical
// fallback to legacy RATs), injects failures per the calibrated cause
// model, and produces the signaling message sequence and duration of every
// handover. A monitoring probe at the MME turns outcomes into trace
// records — exactly the measurement point of the paper.
package corenet

import (
	"fmt"
	"math"
	"sync"

	"telcolens/internal/causes"
	"telcolens/internal/census"
	"telcolens/internal/devices"
	"telcolens/internal/ho"
	"telcolens/internal/randx"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// Message is one signaling message type of the handover procedure.
type Message uint8

// Handover signaling messages, in rough procedural order. Inter-RAT
// relocations add the GTPv2-C Forward Relocation exchange; SRVCC adds the
// PS-to-CS exchange with the MSC.
const (
	MeasurementReport Message = iota
	HandoverRequired
	HandoverRequest
	HandoverRequestAck
	RRCReconfiguration
	RACHAccess
	HandoverConfirm
	PathSwitchRequest
	ForwardRelocationRequest
	ForwardRelocationResponse
	ForwardRelocationComplete
	PSToCSRequest
	PSToCSResponse
	ReleaseResource
	numMessages
)

var messageNames = [numMessages]string{
	"MeasurementReport", "HandoverRequired", "HandoverRequest",
	"HandoverRequestAck", "RRCReconfiguration", "RACHAccess",
	"HandoverConfirm", "PathSwitchRequest", "ForwardRelocationRequest",
	"ForwardRelocationResponse", "ForwardRelocationComplete",
	"PSToCSRequest", "PSToCSResponse", "ReleaseResource",
}

// String returns the message name.
func (m Message) String() string {
	if int(m) < len(messageNames) {
		return messageNames[m]
	}
	return fmt.Sprintf("Message(%d)", uint8(m))
}

// ElementStats counts the signaling load seen by one core element.
type ElementStats struct {
	Handovers     int64
	Failures      int64
	Messages      int64
	SRVCCAttempts int64
}

func (s *ElementStats) add(o ElementStats) {
	s.Handovers += o.Handovers
	s.Failures += o.Failures
	s.Messages += o.Messages
	s.SRVCCAttempts += o.SRVCCAttempts
}

// Accounting is the signaling load one caller of ExecuteHO has put on the
// three core elements and not yet merged into the EPC's totals. Each
// generation worker owns one: handovers account into it without touching
// memory any other worker writes, and Merge folds it into the element
// Stats when the worker's batch is done.
type Accounting struct {
	MME, SGSN, MSC ElementStats
}

// MME is the Mobility Management Entity: every captured handover crosses it.
type MME struct{ Stats ElementStats }

// SGSN serves 2G/3G relocations.
type SGSN struct{ Stats ElementStats }

// MSC terminates SRVCC voice handovers.
type MSC struct{ Stats ElementStats }

// Config tunes the handover engine.
type Config struct {
	// Seed drives the deterministic per-district coverage-quality draw.
	Seed uint64
	// RareBoost multiplies the 2G fallback probability. Default 1
	// reproduces the paper's ≈0.001% share of HOs; regression
	// experiments boost it for sample efficiency (see DESIGN.md).
	RareBoost float64
}

func (c Config) seed() uint64 { return c.Seed }

// Duration models per handover type (§5.2, Fig 8): median/p95 ms.
var successDuration = map[ho.Type][2]float64{
	ho.Intra: {43, 92},
	ho.To3G:  {412, 1087},
	ho.To2G:  {1041, 3799},
}

// Base failure probabilities per handover type, calibrated to the paper's
// §6 marginals: sector-day median HOF rates of 0.04%/5.85%/21.42% and the
// 24.9%/75.1%/0.03% split of failures across types.
var baseFailure = map[ho.Type]float64{
	ho.Intra: 0.0014,
	ho.To3G:  0.050,
	ho.To2G:  0.280,
}

// vendorFailMult mirrors the Table 5 vendor coefficients (V3 ≈ e^0.72).
var vendorFailMult = [4]float64{1.0, 1.12, 2.0, 1.06}

// EPC is the simulated 4G/5G-NSA core with its attached legacy elements.
// ExecuteHO is safe for concurrent use as long as every goroutine passes
// its own Accounting; the element Stats hold what has been Merged so far.
type EPC struct {
	MME  MME
	SGSN SGSN
	MSC  MSC

	statsMu sync.Mutex // guards the three element Stats in Merge

	net     *topology.Network
	country *census.Country
	causes  *causes.Catalog
	cfg     Config

	fallback3G      []float64 // per-district P(vertical HO to 3G), rural sectors
	fallback2G      []float64
	fallback3GUrban []float64 // same for urban sectors
	fallback2GUrban []float64
}

// NewEPC builds the handover engine over a deployment.
func NewEPC(net *topology.Network, country *census.Country, causeCat *causes.Catalog, cfg Config) (*EPC, error) {
	if net == nil || country == nil || causeCat == nil {
		return nil, fmt.Errorf("corenet: nil inputs")
	}
	if cfg.RareBoost <= 0 {
		cfg.RareBoost = 1
	}
	e := &EPC{net: net, country: country, causes: causeCat, cfg: cfg}
	e.buildFallbackTables()
	return e, nil
}

// buildFallbackTables computes vertical-handover probabilities per
// district and area type. Vertical fallback is an area-and-density
// phenomenon: rural sectors lack 4G depth everywhere (steeper in sparse
// districts), and urban sectors outside the dense cores also shed load to
// 3G — the paper's urban areas carry ≈75% of all failures (Fig 12/15)
// while the capital core stays >99.9% intra (Fig 9a).
func (e *EPC) buildFallbackTables() {
	n := len(e.country.Districts)
	e.fallback3G = make([]float64, n)
	e.fallback2G = make([]float64, n)
	e.fallback3GUrban = make([]float64, n)
	e.fallback2GUrban = make([]float64, n)

	// Rank-normalize district density: 0 = least dense, 1 = densest.
	rank := e.country.DensityRank()
	rankNorm := make([]float64, n)
	for pos, id := range rank {
		if n > 1 {
			rankNorm[id] = float64(pos) / float64(n-1)
		}
	}
	// Per-district coverage-quality heterogeneity: real deployments vary
	// widely at equal density (terrain, spectrum, build-out age), which is
	// what makes the paper's Fig 9b distribution so skewed — district
	// median 1.21% vertical HOs against a mean of 5.41%.
	qr := randx.NewStream(e.cfg.seed(), "coverage-quality", 0)
	for i := range e.country.Districts {
		inv := 1 - rankNorm[i]
		q := qr.LogNormal(0, 1.1)
		rural := (0.040 + 0.45*math.Pow(inv, 2.8)) * q
		urban := (0.018 + 0.150*math.Pow(inv, 1.5)) * q
		e.fallback3G[i] = math.Min(rural, 0.63)
		e.fallback3GUrban[i] = math.Min(urban, 0.25)
		e.fallback2G[i] = math.Min(rural*0.00018*e.cfg.RareBoost, 0.25)
		e.fallback2GUrban[i] = math.Min(urban*0.00018*e.cfg.RareBoost, 0.25)
	}
	// Pin the paper's landmark extremes: the densest (capital-core)
	// district stays >99.9% intra, the least dense approaches ≈58%.
	e.fallback3G[rank[0]] = 0.60
	e.fallback3GUrban[rank[0]] = 0.30
	e.fallback3GUrban[rank[n-1]] = 0.0008
	e.fallback3G[rank[n-1]] = 0.002
}

// HORequest is one handover trigger from the RAN.
type HORequest struct {
	TimeMs      int64 // Unix ms
	UE          trace.UEID
	Model       *devices.Model
	Source      topology.SectorID
	TargetSite  topology.SiteID
	Area        census.AreaType // area of the source sector
	DistrictID  int
	LoadFactor  float64 // diurnal load in [0,1]
	VoiceActive bool
}

// Outcome is the result of executing one handover.
type Outcome struct {
	Target     topology.SectorID
	TargetRAT  topology.RAT
	Type       ho.Type
	Result     trace.Result
	Cause      causes.Code
	DurationMs float64
	Sequence   []Message // shared and read-only: do not modify
}

// ExecuteHO runs the full handover procedure for one trigger and returns
// its outcome, charging its signaling load to acct (see Merge). The
// supplied Rand must be the caller's deterministic per-UE stream.
func (e *EPC) ExecuteHO(r *randx.Rand, req HORequest, acct *Accounting) Outcome {
	hoType := e.selectHOType(r, req)
	targetRAT := hoType.TargetRAT()
	target := e.selectTargetSector(r, req, targetRAT)
	if target == nil {
		// No sector of the fallback RAT reachable: stay horizontal.
		hoType = ho.Intra
		targetRAT = topology.FourG
		target = e.selectTargetSector(r, req, targetRAT)
	}

	out := Outcome{
		Target:    target.ID,
		TargetRAT: targetRAT,
		Type:      hoType,
	}

	pFail := e.failureProbability(req, hoType)
	if r.Bool(pFail) {
		out.Result = trace.Failure
		out.Cause = e.causes.Sample(r, hoType, req.Area, req.Model.Type)
		out.DurationMs = e.causes.SampleDuration(r, out.Cause)
		out.Sequence = failureSequence(hoType, out.Cause, req.VoiceActive)
	} else {
		out.Result = trace.Success
		med := successDuration[hoType]
		out.DurationMs = r.LogNormalMedP95(med[0], med[1])
		out.Sequence = successSequence(hoType, req.VoiceActive)
	}
	acct.charge(req, hoType, &out)
	return out
}

// Merge folds acct into the element Stats and zeroes it. Integer sums
// commute, so the totals do not depend on how handovers were spread over
// Accountings or in which order those are merged.
func (e *EPC) Merge(acct *Accounting) {
	e.statsMu.Lock()
	e.MME.Stats.add(acct.MME)
	e.SGSN.Stats.add(acct.SGSN)
	e.MSC.Stats.add(acct.MSC)
	e.statsMu.Unlock()
	*acct = Accounting{}
}

// selectHOType decides horizontal vs vertical per the sector's area type,
// district coverage and device capability.
func (e *EPC) selectHOType(r *randx.Rand, req HORequest) ho.Type {
	var p3, p2 float64
	if req.Area == census.Urban {
		p3 = e.fallback3GUrban[req.DistrictID]
		p2 = e.fallback2GUrban[req.DistrictID]
	} else {
		p3 = e.fallback3G[req.DistrictID]
		p2 = e.fallback2G[req.DistrictID]
	}
	if req.Model.SupportsRAT(topology.TwoG) && r.Bool(p2) {
		return ho.To2G
	}
	if req.Model.SupportsRAT(topology.ThreeG) && r.Bool(p3) {
		return ho.To3G
	}
	return ho.Intra
}

// selectTargetSector picks a sector of the wanted RAT at the destination
// site, its neighbors, or (for vertical HOs) anywhere in the district.
func (e *EPC) selectTargetSector(r *randx.Rand, req HORequest, rat topology.RAT) *topology.Sector {
	site := e.net.Site(req.TargetSite)
	if sec := pickSectorOfRAT(r, e.net, site, rat); sec != nil {
		return sec
	}
	for _, nb := range e.net.NeighborSites(site.ID) {
		if sec := pickSectorOfRAT(r, e.net, e.net.Site(nb), rat); sec != nil {
			return sec
		}
	}
	// Last resort for legacy RATs: any sector of that RAT in the district.
	for _, sid := range e.net.SectorsInDistrict(req.DistrictID) {
		if sec := e.net.Sector(sid); sec.RAT == rat {
			return sec
		}
	}
	return nil
}

func pickSectorOfRAT(r *randx.Rand, net *topology.Network, site *topology.Site, rat topology.RAT) *topology.Sector {
	if site == nil || !site.HasRAT(rat) {
		return nil
	}
	// Uniform over the site's sectors of that RAT, in Site.Sectors order:
	// count them, draw once, walk to the drawn one — no candidate slice.
	n := 0
	for _, sid := range site.Sectors {
		if net.Sector(sid).RAT == rat {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	k := r.Intn(n)
	for _, sid := range site.Sectors {
		if sec := net.Sector(sid); sec.RAT == rat {
			if k == 0 {
				return sec
			}
			k--
		}
	}
	return nil
}

// failureProbability composes the calibrated multipliers: HO type base ×
// source-sector vendor × area × diurnal load × manufacturer quirk.
func (e *EPC) failureProbability(req HORequest, t ho.Type) float64 {
	p := baseFailure[t]
	src := e.net.Sector(req.Source)
	p *= vendorFailMult[src.Vendor]
	if req.Area == census.Rural {
		// Sparse deployments raise failure odds (paper Table 5: rural
		// coefficient +0.26 on the log scale).
		p *= 1.45
	} else if t != ho.Intra {
		// Urban vertical handovers fail disproportionately on target-load
		// rejections (cause #4 drives 42% of urban HOFs, §6.2).
		p *= 1.3
	}
	p *= 0.8 + 0.5*req.LoadFactor
	p *= req.Model.Quirk.HOFMult
	return math.Min(p, 0.95)
}

func (a *Accounting) charge(req HORequest, t ho.Type, out *Outcome) {
	a.MME.Handovers++
	a.MME.Messages += int64(len(out.Sequence))
	if out.Result == trace.Failure {
		a.MME.Failures++
	}
	if t != ho.Intra {
		a.SGSN.Handovers++
		a.SGSN.Messages += int64(len(out.Sequence))
		if out.Result == trace.Failure {
			a.SGSN.Failures++
		}
		if req.VoiceActive {
			a.MSC.SRVCCAttempts++
			a.MSC.Messages += 2
		}
	}
}

// The message exchanges, one shared read-only slice per distinct
// procedure: Outcome.Sequence aliases them, so executing a handover
// allocates no sequence. Callers must not modify a Sequence.
var (
	seqIntraSuccess = []Message{
		MeasurementReport, HandoverRequired, HandoverRequest,
		HandoverRequestAck, RRCReconfiguration, RACHAccess,
		HandoverConfirm, PathSwitchRequest, ReleaseResource,
	}
	seqVerticalSuccess = []Message{
		MeasurementReport, HandoverRequired, ForwardRelocationRequest,
		ForwardRelocationResponse,
		RRCReconfiguration, RACHAccess, HandoverConfirm,
		ForwardRelocationComplete, ReleaseResource,
	}
	seqSRVCCSuccess = []Message{
		MeasurementReport, HandoverRequired, ForwardRelocationRequest,
		ForwardRelocationResponse, PSToCSRequest, PSToCSResponse,
		RRCReconfiguration, RACHAccess, HandoverConfirm,
		ForwardRelocationComplete, ReleaseResource,
	}

	seqRejected          = []Message{MeasurementReport, HandoverRequired}
	seqIntraAdmission    = []Message{MeasurementReport, HandoverRequired, HandoverRequest}
	seqVerticalAdmission = []Message{MeasurementReport, HandoverRequired, ForwardRelocationRequest}
	seqSRVCCPreparation  = []Message{MeasurementReport, HandoverRequired, ForwardRelocationRequest, PSToCSRequest, PSToCSResponse}
	seqNoComplete        = []Message{MeasurementReport, HandoverRequired, ForwardRelocationRequest, ForwardRelocationResponse,
		RRCReconfiguration, RACHAccess}
	seqSRVCCNoComplete = []Message{MeasurementReport, HandoverRequired, ForwardRelocationRequest, ForwardRelocationResponse,
		PSToCSRequest, PSToCSResponse, RRCReconfiguration, RACHAccess}
	seqIntraMidway    = []Message{MeasurementReport, HandoverRequired, HandoverRequest, HandoverRequestAck}
	seqVerticalMidway = []Message{MeasurementReport, HandoverRequired, ForwardRelocationRequest, ForwardRelocationResponse}
)

// successSequence is the full message exchange of a completed handover.
func successSequence(t ho.Type, voice bool) []Message {
	switch {
	case t == ho.Intra:
		return seqIntraSuccess
	case voice:
		return seqSRVCCSuccess
	default:
		return seqVerticalSuccess
	}
}

// failureSequence truncates the procedure at the point where each cause
// strikes: causes #3/#6 reject before initiation, #4 during admission,
// #7 during SRVCC preparation, #8 after the command (waiting forever for
// Forward Relocation Complete), others mid-procedure.
func failureSequence(t ho.Type, cause causes.Code, voice bool) []Message {
	switch cause {
	case 3, 6:
		return seqRejected
	case 4:
		if t == ho.Intra {
			return seqIntraAdmission
		}
		return seqVerticalAdmission
	case 7:
		return seqSRVCCPreparation
	case 8:
		if voice {
			return seqSRVCCNoComplete
		}
		return seqNoComplete
	default:
		if t == ho.Intra {
			return seqIntraMidway
		}
		return seqVerticalMidway
	}
}
