package corenet

import (
	"math"
	"sort"
	"sync"
	"testing"

	"telcolens/internal/causes"
	"telcolens/internal/census"
	"telcolens/internal/devices"
	"telcolens/internal/ho"
	"telcolens/internal/randx"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

type world struct {
	country *census.Country
	net     *topology.Network
	catalog *devices.Catalog
	epc     *EPC
	acct    Accounting // what the test's handovers charged, unmerged
}

func buildWorld(t testing.TB, cfg Config) *world {
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
	causeCat, err := causes.NewCatalog(42, 1100)
	if err != nil {
		t.Fatal(err)
	}
	epc, err := NewEPC(net, country, causeCat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &world{country: country, net: net, catalog: catalog, epc: epc}
}

// smartphoneModel finds a 5G-capable smartphone model for request stubs.
func smartphoneModel(t testing.TB, c *devices.Catalog) *devices.Model {
	t.Helper()
	for i := range c.Models {
		m := &c.Models[i]
		if m.Type == devices.Smartphone && m.MaxRAT == topology.FiveG && m.Quirk.HOFMult == 1.0 {
			return m
		}
	}
	for i := range c.Models {
		m := &c.Models[i]
		if m.Type == devices.Smartphone && m.MaxRAT >= topology.FourG {
			return m
		}
	}
	t.Fatal("no smartphone model found")
	return nil
}

func requestAt(w *world, site topology.SiteID, model *devices.Model) HORequest {
	s := w.net.Site(site)
	var srcSector topology.SectorID
	for _, sid := range s.Sectors {
		if w.net.Sector(sid).RAT == topology.FourG {
			srcSector = sid
			break
		}
	}
	return HORequest{
		TimeMs:     trace.StudyStart.UnixMilli(),
		UE:         1,
		Model:      model,
		Source:     srcSector,
		TargetSite: site,
		Area:       s.Area,
		DistrictID: s.DistrictID,
		LoadFactor: 0.5,
	}
}

func TestExecuteHOBasics(t *testing.T) {
	w := buildWorld(t, Config{})
	model := smartphoneModel(t, w.catalog)
	r := randx.New(1)
	for i := 0; i < 2000; i++ {
		site := topology.SiteID(r.Intn(len(w.net.Sites)))
		req := requestAt(w, site, model)
		out := w.epc.ExecuteHO(r, req, &w.acct)
		if w.net.Sector(out.Target) == nil {
			t.Fatal("outcome targets unknown sector")
		}
		if w.net.Sector(out.Target).RAT != out.TargetRAT {
			t.Fatal("target RAT mismatch")
		}
		if out.Result == trace.Failure && out.Cause == causes.CodeNone {
			t.Fatal("failure without cause")
		}
		if out.Result == trace.Success && out.Cause != causes.CodeNone {
			t.Fatal("success with cause")
		}
		if out.DurationMs < 0 {
			t.Fatal("negative duration")
		}
		if len(out.Sequence) < 2 {
			t.Fatal("degenerate message sequence")
		}
		if out.Sequence[0] != MeasurementReport {
			t.Fatal("procedure must start with a measurement report")
		}
	}
	if w.epc.MME.Stats.Handovers != 0 {
		t.Fatalf("MME totals moved before Merge: %d", w.epc.MME.Stats.Handovers)
	}
	w.epc.Merge(&w.acct)
	if w.epc.MME.Stats.Handovers != 2000 {
		t.Fatalf("MME saw %d handovers", w.epc.MME.Stats.Handovers)
	}
	if w.acct != (Accounting{}) {
		t.Fatalf("Merge left the accounting non-zero: %+v", w.acct)
	}
}

// TestAccountingPerWorkerMerge is the generation pattern under -race:
// workers execute handovers concurrently, each charging its own
// Accounting, and merge when done. The element totals must equal one
// caller's totals for the same handovers.
func TestAccountingPerWorkerMerge(t *testing.T) {
	w := buildWorld(t, Config{})
	model := smartphoneModel(t, w.catalog)
	const workers, perWorker = 4, 500
	run := func(worker int, acct *Accounting) {
		r := randx.New(uint64(worker) + 1)
		for i := 0; i < perWorker; i++ {
			req := requestAt(w, topology.SiteID(r.Intn(len(w.net.Sites))), model)
			req.VoiceActive = i%3 == 0
			w.epc.ExecuteHO(r, req, acct)
		}
	}
	var want Accounting
	for k := 0; k < workers; k++ {
		run(k, &want)
	}

	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var acct Accounting
			run(k, &acct)
			w.epc.Merge(&acct)
		}(k)
	}
	wg.Wait()
	got := Accounting{MME: w.epc.MME.Stats, SGSN: w.epc.SGSN.Stats, MSC: w.epc.MSC.Stats}
	if got != want {
		t.Fatalf("merged totals %+v, single-caller totals %+v", got, want)
	}
	if got.MME.Handovers != workers*perWorker {
		t.Fatalf("MME saw %d handovers", got.MME.Handovers)
	}
}

func TestVerticalShareCalibration(t *testing.T) {
	w := buildWorld(t, Config{})
	model := smartphoneModel(t, w.catalog)
	r := randx.New(5)

	// Sample sites population-proportionally the way real HOs occur:
	// weight districts by population.
	weights := make([]float64, len(w.country.Districts))
	for i, d := range w.country.Districts {
		weights[i] = float64(d.Population)
	}
	dc := randx.MustWeightedChoice(weights)

	const n = 150000
	counts := make(map[ho.Type]int)
	for i := 0; i < n; i++ {
		dist := dc.Sample(r)
		sites := w.net.SitesInDistrict(dist)
		site := sites[r.Intn(len(sites))]
		out := w.epc.ExecuteHO(r, requestAt(w, site, model), &w.acct)
		counts[out.Type]++
	}
	intra := float64(counts[ho.Intra]) / n
	to3g := float64(counts[ho.To3G]) / n
	// §5.2 Table 2: 94.14% intra, 5.86% to 3G.
	if math.Abs(intra-0.9414) > 0.025 {
		t.Errorf("intra share = %.4f, want ≈0.941", intra)
	}
	if math.Abs(to3g-0.0586) > 0.025 {
		t.Errorf("3G share = %.4f, want ≈0.059", to3g)
	}
	// 2G handovers are vanishingly rare without boost.
	if float64(counts[ho.To2G])/n > 0.001 {
		t.Errorf("2G share = %.5f, want <0.1%%", float64(counts[ho.To2G])/n)
	}
}

func TestRareBoostScales2G(t *testing.T) {
	base := buildWorld(t, Config{})
	boosted := buildWorld(t, Config{RareBoost: 200})
	for i, d := range base.country.Districts {
		pb := base.epc.fallback2G[i]
		pB := boosted.epc.fallback2G[i]
		if pb > 0 && pB < pb*50 {
			t.Fatalf("district %s: boost did not scale 2G fallback (%g vs %g)", d.Name, pb, pB)
		}
	}
}

func TestRuralDistrictsFallBackMore(t *testing.T) {
	w := buildWorld(t, Config{})
	rank := w.country.DensityRank()
	least := w.epc.fallback3G[rank[0]]
	most := w.epc.fallback3G[rank[len(rank)-1]]
	urban := w.epc.fallback3GUrban[rank[len(rank)-1]]
	// Fig 9: the remotest district reaches ≈58% vertical HOs; rural
	// pockets of dense districts fall back far less; urban sectors rely
	// on 4G/5G for >99.8% of HOs.
	if least < 0.45 {
		t.Fatalf("least dense district rural fallback = %.3f, want ≈0.6", least)
	}
	if most > 0.2 {
		t.Fatalf("densest district rural fallback = %.4f, want modest", most)
	}
	if least < 2*most {
		t.Fatalf("rural fallback gradient too flat: %.3f vs %.3f", least, most)
	}
	if urban > 0.003 {
		t.Fatalf("urban fallback = %.4f, want ≈0.0015", urban)
	}
}

func TestFailureRatesByHOType(t *testing.T) {
	w := buildWorld(t, Config{RareBoost: 5000}) // force 2G samples
	model := smartphoneModel(t, w.catalog)
	r := randx.New(7)
	fails := make(map[ho.Type]int)
	totals := make(map[ho.Type]int)
	// Rural sites produce enough vertical HOs.
	rank := w.country.DensityRank()
	var ruralSites []topology.SiteID
	for _, distID := range rank[:60] {
		ruralSites = append(ruralSites, w.net.SitesInDistrict(distID)...)
	}
	for i := 0; i < 400000 && (totals[ho.To2G] < 2000 || totals[ho.Intra] < 30000); i++ {
		site := ruralSites[r.Intn(len(ruralSites))]
		out := w.epc.ExecuteHO(r, requestAt(w, site, model), &w.acct)
		totals[out.Type]++
		if out.Result == trace.Failure {
			fails[out.Type]++
		}
	}
	rate := func(t ho.Type) float64 { return float64(fails[t]) / float64(totals[t]) }
	rIntra, r3, r2 := rate(ho.Intra), rate(ho.To3G), rate(ho.To2G)
	if rIntra > 0.01 {
		t.Errorf("intra failure rate = %.4f, want ≈0.1%%", rIntra)
	}
	if r3 < 10*rIntra {
		t.Errorf("3G failure rate %.4f not ≫ intra %.5f", r3, rIntra)
	}
	if r2 < 2*r3 {
		t.Errorf("2G failure rate %.4f not ≫ 3G %.4f", r2, r3)
	}
	// §6.3 first look: 2G median ≈21%, 3G ≈6%.
	if r2 < 0.12 || r2 > 0.6 {
		t.Errorf("2G failure rate = %.3f, want ≈0.2-0.4", r2)
	}
}

func TestSuccessDurationMedians(t *testing.T) {
	w := buildWorld(t, Config{})
	model := smartphoneModel(t, w.catalog)
	r := randx.New(11)
	durations := make(map[ho.Type][]float64)
	rank := w.country.DensityRank()
	var sites []topology.SiteID
	for _, distID := range rank[:80] {
		sites = append(sites, w.net.SitesInDistrict(distID)...)
	}
	for i := 0; i < 120000; i++ {
		site := sites[r.Intn(len(sites))]
		out := w.epc.ExecuteHO(r, requestAt(w, site, model), &w.acct)
		if out.Result == trace.Success {
			durations[out.Type] = append(durations[out.Type], out.DurationMs)
		}
	}
	med := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	// Fig 8: medians 43ms / 412ms / (1041ms for 2G, too rare here).
	if m := med(durations[ho.Intra]); math.Abs(m-43)/43 > 0.05 {
		t.Errorf("intra median duration = %.1f, want ≈43", m)
	}
	if m := med(durations[ho.To3G]); math.Abs(m-412)/412 > 0.08 {
		t.Errorf("3G median duration = %.1f, want ≈412", m)
	}
}

func TestSequencesDifferByType(t *testing.T) {
	intra := successSequence(ho.Intra, false)
	inter := successSequence(ho.To3G, false)
	voice := successSequence(ho.To3G, true)

	if contains(intra, ForwardRelocationRequest) {
		t.Fatal("intra handover carries Forward Relocation")
	}
	if !contains(inter, ForwardRelocationRequest) || !contains(inter, ForwardRelocationComplete) {
		t.Fatal("inter-RAT handover lacks Forward Relocation exchange")
	}
	if !contains(voice, PSToCSRequest) {
		t.Fatal("SRVCC handover lacks PS-to-CS exchange")
	}
	if contains(inter, PSToCSRequest) {
		t.Fatal("data-only handover carries SRVCC messages")
	}
}

func TestFailureSequencesTruncated(t *testing.T) {
	full := len(successSequence(ho.To3G, false))
	for _, cause := range []causes.Code{1, 2, 3, 4, 5, 6, 7} {
		seq := failureSequence(ho.To3G, cause, false)
		if len(seq) >= full {
			t.Errorf("cause %d sequence not truncated (%d >= %d)", cause, len(seq), full)
		}
	}
	// Cause #3/#6 die right after HandoverRequired.
	if seq := failureSequence(ho.To3G, 3, false); len(seq) != 2 || seq[1] != HandoverRequired {
		t.Fatalf("cause 3 sequence = %v", seq)
	}
	// Cause #8 never sees ForwardRelocationComplete.
	if contains(failureSequence(ho.To3G, 8, false), ForwardRelocationComplete) {
		t.Fatal("timeout cause contains relocation complete")
	}
}

func TestQuirkRaisesFailures(t *testing.T) {
	// Default failure scale: amplifying it would push vertical handovers
	// into the 0.95 probability cap and compress the quirk contrast.
	w := buildWorld(t, Config{})
	var normal, flaky *devices.Model
	for i := range w.catalog.Models {
		m := &w.catalog.Models[i]
		if m.Type == devices.Smartphone && m.MaxRAT >= topology.FourG {
			if m.Quirk.HOFMult == 1.0 && normal == nil {
				normal = m
			}
			if m.Quirk.HOFMult >= 5 && flaky == nil {
				flaky = m
			}
		}
	}
	if normal == nil || flaky == nil {
		t.Fatal("catalog lacks quirk contrast")
	}
	r := randx.New(3)
	failsOf := func(m *devices.Model) int {
		fails := 0
		for i := 0; i < 60000; i++ {
			site := topology.SiteID(r.Intn(len(w.net.Sites)))
			out := w.epc.ExecuteHO(r, requestAt(w, site, m), &w.acct)
			if out.Result == trace.Failure {
				fails++
			}
		}
		return fails
	}
	fNormal := failsOf(normal)
	fFlaky := failsOf(flaky)
	if fFlaky < 3*fNormal {
		t.Fatalf("flaky device fails %d vs normal %d, want ≫", fFlaky, fNormal)
	}
}

func TestMSCSeesSRVCC(t *testing.T) {
	w := buildWorld(t, Config{})
	model := smartphoneModel(t, w.catalog)
	r := randx.New(13)
	rank := w.country.DensityRank()
	sites := w.net.SitesInDistrict(rank[0])
	for i := 0; i < 20000; i++ {
		req := requestAt(w, sites[r.Intn(len(sites))], model)
		req.VoiceActive = true
		w.epc.ExecuteHO(r, req, &w.acct)
	}
	w.epc.Merge(&w.acct)
	if w.epc.MSC.Stats.SRVCCAttempts == 0 {
		t.Fatal("MSC never saw SRVCC attempts despite rural voice handovers")
	}
	if w.epc.SGSN.Stats.Handovers == 0 {
		t.Fatal("SGSN never saw inter-RAT handovers")
	}
}

func TestNewEPCErrors(t *testing.T) {
	if _, err := NewEPC(nil, nil, nil, Config{}); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

func TestMessageStrings(t *testing.T) {
	if MeasurementReport.String() != "MeasurementReport" {
		t.Fatal("message name wrong")
	}
	if ReleaseResource.String() != "ReleaseResource" {
		t.Fatal("message name wrong")
	}
}

func contains(seq []Message, m Message) bool {
	for _, s := range seq {
		if s == m {
			return true
		}
	}
	return false
}

func BenchmarkExecuteHO(b *testing.B) {
	w := buildWorld(b, Config{})
	model := smartphoneModel(b, w.catalog)
	r := randx.New(1)
	req := requestAt(w, 0, model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.epc.ExecuteHO(r, req, &w.acct)
	}
}
