// Package simulate orchestrates the full synthetic measurement campaign:
// it builds the country (census), the deployment (topology), the device
// universe (devices), the subscriber base (subscribers), and then replays
// the study window day by day — planning per-UE mobility, executing every
// handover through the simulated EPC, and landing the captured records in
// a day-partitioned trace store, together with the RAT up-time and traffic
// aggregates behind the paper's Figure 3b.
package simulate

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"telcolens/internal/causes"
	"telcolens/internal/census"
	"telcolens/internal/corenet"
	"telcolens/internal/devices"
	"telcolens/internal/mobility"
	"telcolens/internal/randx"
	"telcolens/internal/subscribers"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// Config parameterizes a full campaign. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	Seed uint64
	// Days is the study window length (the paper uses 28). On a
	// streaming-ingested campaign it counts the fully landed (sealed)
	// days and grows as the stream progresses.
	Days int
	// WindowDays, when larger than Days, is the study window the campaign
	// will grow to. The deployment timeline of the world model is seeded
	// by the window length, so a streaming ingest target declares the
	// final window up front to build a world byte-identical to the batch
	// campaign it mirrors while its landed-day count is still catching
	// up. Zero means Days (the batch-generation case).
	WindowDays int
	// UEs is the subscriber population size. The paper observes ≈40M;
	// the default laptop scale is 20k — every reported statistic is a
	// share, quantile or coefficient, hence scale-free.
	UEs int
	// Districts and SitesTarget size the country and deployment.
	Districts   int
	SitesTarget int
	// RareBoost multiplies 2G fallback probability (see DESIGN.md).
	RareBoost float64
	// LongTailCauses sizes the vendor sub-cause catalog.
	LongTailCauses int
	// Workers bounds generation parallelism; 0 means GOMAXPROCS.
	Workers int
	// Shards is the number of per-day trace partitions, hash-partitioned
	// by UE (trace.ShardOf); 0 or 1 writes one partition per day. More
	// shards let trace.Scan fan the analysis out over cores.
	Shards int
	// Store is the campaign's trace store, a directory opened with
	// trace.NewFileStore: Generate writes into it (and refuses a nil
	// one), Load sets it, and every reader of the Dataset goes through
	// it.
	Store trace.Store
	// FullScaleUEs is the real-world population the campaign stands in
	// for; Table 1 extrapolations use FullScaleUEs/UEs. Default 40M.
	FullScaleUEs int
}

// worldWindowDays is the study window length the world model (the
// topology deployment timeline in particular) is built for.
func (c *Config) worldWindowDays() int {
	if c.WindowDays > c.Days {
		return c.WindowDays
	}
	return c.Days
}

// worldKey identifies the world a config describes: every persisted
// field BuildWorld derives the world model from, plus the remaining
// campaign identity (full-scale population, sharding). Two configs with
// equal keys differ at most in their landed-day count inside one world
// window.
type worldKey struct {
	seed                             uint64
	ues, districts, sites, longTail  int
	rareBoost                        float64
	fullScaleUEs, shards, windowDays int
}

func (c *Config) worldKey() worldKey {
	return worldKey{
		seed: c.Seed, ues: c.UEs, districts: c.Districts, sites: c.SitesTarget,
		longTail: c.LongTailCauses, rareBoost: c.RareBoost,
		fullScaleUEs: c.FullScaleUEs, shards: c.Shards, windowDays: c.worldWindowDays(),
	}
}

// DefaultConfig returns the calibrated laptop-scale configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:           seed,
		Days:           28,
		UEs:            20000,
		Districts:      320,
		SitesTarget:    2400,
		RareBoost:      1,
		LongTailCauses: 1100,
		FullScaleUEs:   40_000_000,
	}
}

// activityRate is the probability that a site transition happens with an
// active data connection and therefore produces a handover rather than an
// idle-mode cell reselection (§2, footnote 4).
var activityRate = map[devices.DeviceType]float64{
	devices.Smartphone:   0.92,
	devices.M2MIoT:       0.85,
	devices.FeaturePhone: 0.50,
}

// voiceRate is the probability a handover happens during an active voice
// call (relevant to SRVCC, §6.2 causes #6/#7).
var voiceRate = map[devices.DeviceType]float64{
	devices.Smartphone:   0.08,
	devices.M2MIoT:       0.002,
	devices.FeaturePhone: 0.30,
}

// upTimeHours is the daily active-connectivity time by device type and,
// for M2M, by maximum RAT (legacy meters chatter on 2G for long periods).
// Calibrated so the countrywide time-on-RAT shares land near the paper's
// 82% / 8.9% / 8.9% (§4.1).
func upTimeHours(m *devices.Model) float64 {
	switch m.Type {
	case devices.Smartphone:
		return 14
	case devices.FeaturePhone:
		return 5
	default:
		if m.MaxRAT == topology.TwoG {
			return 8
		}
		if m.MaxRAT == topology.ThreeG {
			return 3
		}
		return 4
	}
}

// Traffic rates in MB per up-time hour, calibrated to the §4.1 volume
// shares (UL 94.77% / DL 97.93% on 4G/5G).
var (
	dlRate = map[topology.RAT]float64{topology.TwoG: 0.12, topology.ThreeG: 9, topology.FourG: 60}
	ulRate = map[topology.RAT]float64{topology.TwoG: 0.45, topology.ThreeG: 2.8, topology.FourG: 9}
)

// verticalDwellHours is the time a 4G-capable UE spends camped on the
// legacy RAT after each vertical handover before returning to LTE.
const verticalDwellHours = 0.2

// DayAggregate captures one day's RAT-time and traffic ground truth.
type DayAggregate struct {
	RATTimeHours [4]float64 // indexed by topology.RAT
	ULMB         [4]float64
	DLMB         [4]float64
	Handovers    int64
	Failures     int64
}

// Dataset bundles everything a generated campaign produced.
type Dataset struct {
	Config     Config
	Country    *census.Country
	Network    *topology.Network
	Devices    *devices.Catalog
	Causes     *causes.Catalog
	Population *subscribers.Population
	EPC        *corenet.EPC
	DayStats   []DayAggregate
	// Timings is where this process's generation wall time went
	// (Generate and GenerateDays accumulate into it; Load leaves it zero).
	Timings GenTimings
}

// GenTimings splits generation wall time. The day writer overlaps the
// simulation of the next day, so Write runs alongside Simulate; the wall
// time of a run is World + Simulate + WriteTail.
type GenTimings struct {
	// World is the world model plus the generation-only lookup structures
	// (the planner's spatial index and trig tables, anchor-sector lists).
	World time.Duration
	// Simulate is the day loop's wall time up to the end of the last
	// day's simulation: mobility plans and handovers on the workers, and
	// any wait for the writer to take the previous day.
	Simulate time.Duration
	// Write is the writer's busy time: the canonical sort of each day, the
	// per-shard gather, block encoding and the store write.
	Write time.Duration
	// WriteTail is the part of Write after the last day's simulation: the
	// wait for the last day to land.
	WriteTail time.Duration
}

// ScaleFactor returns the population ratio between the paper's campaign
// and this one, used for Table 1 extrapolation.
func (d *Dataset) ScaleFactor() float64 {
	return float64(d.Config.FullScaleUEs) / float64(d.Config.UEs)
}

// TotalHandovers sums the generated handover count.
func (d *Dataset) TotalHandovers() int64 {
	var n int64
	for _, day := range d.DayStats {
		n += day.Handovers
	}
	return n
}

// Generate runs a full campaign into Config.Store; the caller saves its
// descriptor (SaveManifest). If a day fails to land, Generate returns
// the error together with the dataset of the days before it:
// Config.Days and DayStats count only the landed days, and
// Config.WindowDays keeps the requested window the world was built for.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Days <= 0 || cfg.UEs <= 0 {
		return nil, fmt.Errorf("simulate: non-positive days (%d) or UEs (%d)", cfg.Days, cfg.UEs)
	}
	if cfg.Store == nil {
		return nil, errors.New("simulate: Config.Store is nil; generate into a campaign directory opened with trace.NewFileStore")
	}
	if cfg.Districts == 0 {
		cfg.Districts = 320
	}
	if cfg.SitesTarget == 0 {
		cfg.SitesTarget = 2400
	}
	if cfg.RareBoost <= 0 {
		cfg.RareBoost = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > 256 {
		return nil, fmt.Errorf("simulate: %d shards exceeds the 256-shard cap", cfg.Shards)
	}
	if cfg.FullScaleUEs <= 0 {
		cfg.FullScaleUEs = 40_000_000
	}

	start := time.Now()
	ds, err := BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	g, err := newGenerator(ds)
	if err != nil {
		return nil, err
	}
	ds.Timings.World += time.Since(start)
	ds.Config.Days, ds.Config.WindowDays = 0, cfg.worldWindowDays()
	ds.DayStats = make([]DayAggregate, 0, cfg.Days)
	if err := g.run(cfg.Days, nil); err != nil {
		return ds, err
	}
	ds.Config.WindowDays = cfg.WindowDays
	return ds, nil
}

// GenerateDays extends the campaign by n more days, appending day
// partitions to its directory: the growing-feed scenario of the paper's
// pipeline, where a new countrywide capture lands every day. The store
// must be a *trace.FileStore. The world model (census, topology,
// devices, subscribers) stays exactly as originally generated — only the
// study window grows — and each new day consumes its own derived RNG
// stream, so appending is deterministic: the same campaign appended
// twice produces byte-identical partitions.
// Each day commits as it lands: the day writer saves the campaign
// descriptor (manifest.json) after the day's partitions, overlapping the
// next day's simulation. ds.Config.Days, ds.DayStats and the descriptor
// grow with the commits, so on a failed day all three describe the
// landed prefix.
//
// Note an appended campaign is not byte-identical to one generated with
// the larger day count from scratch: the topology's deployment timeline
// is seeded by the original window length. Incremental analysis
// (analysis.Refresh) compares against a full scan of the same store, so
// this does not affect the determinism contract.
func (ds *Dataset) GenerateDays(n int) error {
	if n <= 0 {
		return fmt.Errorf("simulate: non-positive day count %d", n)
	}
	fs, ok := ds.Config.Store.(*trace.FileStore)
	if !ok {
		return fmt.Errorf("simulate: GenerateDays needs a campaign directory opened with trace.NewFileStore (store is %T)", ds.Config.Store)
	}
	if ds.Config.Workers <= 0 {
		// Datasets reopened via Load carry no worker count (the manifest
		// does not persist it); default like Generate does.
		ds.Config.Workers = runtime.GOMAXPROCS(0)
	}
	if ds.Config.Shards <= 0 {
		ds.Config.Shards = 1
	}
	start := time.Now()
	g, err := newGenerator(ds)
	if err != nil {
		return err
	}
	ds.Timings.World += time.Since(start)
	return g.run(n, func(m *CampaignMeta) error { return m.SaveFS(fs.Options().FS, fs.Dir()) })
}

// generator is the state of one Generate or GenerateDays call: the
// lookup structures only generation needs — built here and never in
// BuildWorld, so programs that merely Load a campaign do not pay for
// them — and the memory the day loop reuses.
type generator struct {
	ds      *Dataset
	planner *mobility.Planner
	// anchors[site] lists the site's 4G sectors in Site.Sectors order:
	// the candidates of every anchor-sector draw.
	anchors [][]topology.SectorID
	// ueAgg[i] is UE i's contribution to the current day's aggregate.
	// Workers write disjoint slots; generateDay folds them in UE order,
	// so the day's floating-point sums are those of a sequential run
	// whatever the worker count.
	ueAgg   []DayAggregate
	workers []genWorker
}

// genWorker is the memory one generation worker owns outright.
type genWorker struct {
	// cols receives the worker's captured handovers for the day, straight
	// in columnar form — the hot loop never materializes a []trace.Record.
	cols *trace.ColumnBatch
	plan mobility.Scratch
	epc  corenet.Accounting
}

func newGenerator(ds *Dataset) (*generator, error) {
	planner, err := mobility.NewPlanner(ds.Country, ds.Network)
	if err != nil {
		return nil, fmt.Errorf("simulate: mobility: %w", err)
	}
	g := &generator{ds: ds, planner: planner}

	net := ds.Network
	flat := make([]topology.SectorID, 0, len(net.Sectors))
	g.anchors = make([][]topology.SectorID, len(net.Sites))
	for i := range net.Sites {
		from := len(flat)
		for _, sid := range net.Sites[i].Sectors {
			if net.Sector(sid).RAT == topology.FourG {
				flat = append(flat, sid)
			}
		}
		g.anchors[i] = flat[from:len(flat):len(flat)]
	}

	nWorkers := min(ds.Config.Workers, ds.Config.UEs)
	g.workers = make([]genWorker, nWorkers)
	g.ueAgg = make([]DayAggregate, ds.Config.UEs)
	return g, nil
}

// ueBlock is how many consecutive UEs a generation worker takes from
// the day's shared counter at a time: small enough that the workers
// finish a day together even while the day writer holds one core,
// large enough that the counter is not contended.
const ueBlock = 32

// colBatchPool recycles the generation-side column batches (per-worker
// accumulators and the concatenated day batch) across days, so
// steady-state generation reuses the same column memory.
var colBatchPool = sync.Pool{New: func() any { return new(trace.ColumnBatch) }}

func getBatch() *trace.ColumnBatch {
	b := colBatchPool.Get().(*trace.ColumnBatch)
	b.Reset()
	return b
}

func putBatch(b *trace.ColumnBatch) { colBatchPool.Put(b) }

// run simulates and lands the n days after the landed prefix, the one
// day loop of Generate and GenerateDays. It is a two-stage pipeline: a
// writer goroutine lands day d through trace.WriteDay (and commit, if
// set, saves the descriptor of the days up to d) while the workers
// simulate day d+1, and day d+1 goes to a writer only once day d has
// landed, so one writer runs at a time and the scratch passes from one
// to the next. Config.Days grows as each day lands, so it only ever
// counts fully landed days; the first failed write stops the loop,
// drops the day simulated meanwhile from DayStats and names its day.
//
// Determinism holds because every UE-day consumes its own derived RNG
// stream regardless of worker scheduling, and because nothing that
// depends on the partition of UEs over workers reaches the output: the
// records are sorted into a canonical order (trace.CanonicalLess, a
// total order, so the sealed bytes are a function of the record
// multiset alone; the live ingest sealer lands its days through the
// same trace.WriteDay and therefore writes byte-identical partitions
// from any arrival order), and the day aggregate is folded from per-UE
// slots in UE order.
func (g *generator) run(n int, commit func(*CampaignMeta) error) error {
	ds := g.ds
	var sc trace.DayScratch
	landed := make(chan error)
	write := func(day int, cols *trace.ColumnBatch, meta *CampaignMeta) {
		start := time.Now()
		err := trace.WriteDay(ds.Config.Store, day, ds.Config.Shards, cols, &sc)
		if err == nil && commit != nil {
			err = commit(meta)
		}
		ds.Timings.Write += time.Since(start)
		putBatch(cols)
		landed <- err
	}
	start := time.Now()
	from := ds.Config.Days
	for day := from; day < from+n; day++ {
		cols := g.simulateDay(day)
		if day > from {
			if err := <-landed; err != nil {
				putBatch(cols)
				return g.failed(day-1, err)
			}
			ds.Config.Days = day
		}
		// The descriptor of the prefix ending at day, taken here: the next
		// day's simulation appends to DayStats while the writer runs.
		meta := ds.Meta()
		meta.Config.Days, meta.DayStats = day+1, ds.DayStats[:day+1:day+1]
		go write(day, cols, meta)
	}
	simulated := time.Now()
	ds.Timings.Simulate += simulated.Sub(start)
	err := <-landed
	ds.Timings.WriteTail += time.Since(simulated)
	if err != nil {
		return g.failed(from+n-1, err)
	}
	ds.Config.Days = from + n
	return nil
}

// failed cuts DayStats back to the landed days after day's write failed.
func (g *generator) failed(day int, err error) error {
	g.ds.DayStats = g.ds.DayStats[:g.ds.Config.Days]
	return fmt.Errorf("simulate: day %d: %w", day, err)
}

// simulateDay runs every UE's day on the worker pool, the workers taking
// UEs in blocks of ueBlock from a shared counter, and returns the day's
// records (unsorted, in a pooled batch the writer releases), with the
// workers' EPC accounting merged and the day aggregate appended to
// DayStats.
func (g *generator) simulateDay(day int) *trace.ColumnBatch {
	ds := g.ds
	ues := ds.Config.UEs
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range g.workers {
		wk := &g.workers[w]
		wk.cols = getBatch()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(ueBlock)) - ueBlock
				if lo >= ues {
					return
				}
				for i := lo; i < min(lo+ueBlock, ues); i++ {
					g.simulateUEDay(day, i, wk)
				}
			}
		}()
	}
	wg.Wait()

	dayCols := getBatch()
	for w := range g.workers {
		wk := &g.workers[w]
		dayCols.AppendColumns(wk.cols)
		putBatch(wk.cols)
		wk.cols = nil
		ds.EPC.Merge(&wk.epc)
	}
	var agg DayAggregate
	for i := range g.ueAgg {
		ue := &g.ueAgg[i]
		for r := 0; r < 4; r++ {
			agg.RATTimeHours[r] += ue.RATTimeHours[r]
			agg.ULMB[r] += ue.ULMB[r]
			agg.DLMB[r] += ue.DLMB[r]
		}
		agg.Handovers += ue.Handovers
		agg.Failures += ue.Failures
	}
	ds.DayStats = append(ds.DayStats, agg)
	return dayCols
}

// simulateUEDay replays one UE's day: mobility plan, handovers through the
// EPC, and up-time/traffic accounting.
func (g *generator) simulateUEDay(day, ueIdx int, w *genWorker) {
	ds := g.ds
	agg := &g.ueAgg[ueIdx]
	*agg = DayAggregate{}
	ue := &ds.Population.UEs[ueIdx]
	model := ds.Population.Model(ue)
	r := randx.NewStream(ds.Config.Seed, "ueday", uint64(day)<<32|uint64(ueIdx))

	up := upTimeHours(model)
	dayStartMs := trace.DayStart(day).UnixMilli()

	// Legacy-only devices never appear in the EPC trace but still hold
	// up-time and (marginal) traffic on their RAT.
	if !model.SupportsRAT(topology.FourG) {
		rat := model.MaxRAT
		agg.RATTimeHours[rat] = up
		agg.ULMB[rat] = up * ulRate[rat] * r.LogNormal(0, 0.4)
		agg.DLMB[rat] = up * dlRate[rat] * r.LogNormal(0, 0.4)
		return
	}

	plan := g.planner.PlanDay(r, ue, model, day, &w.plan)
	act := activityRate[model.Type]
	voice := voiceRate[model.Type]

	// Serving 4G anchor sector, tracked across moves.
	curSector := g.anchorSectorAt(r, ue.HomeSite)
	legacyHours := [4]float64{}
	intensity := mobility.Intensity(day)

	for _, mv := range plan.Moves {
		if !r.Bool(act) {
			continue
		}
		toSite := ds.Network.Site(mv.To)
		if toSite.DeployedDay > day {
			continue // site not on air yet
		}
		bin := int(mv.Offset / (30 * time.Minute))
		if bin < 0 {
			bin = 0
		}
		if bin >= mobility.BinsPerDay {
			bin = mobility.BinsPerDay - 1
		}
		req := corenet.HORequest{
			TimeMs:      dayStartMs + mv.Offset.Milliseconds(),
			UE:          ue.ID,
			Model:       model,
			Source:      curSector,
			TargetSite:  mv.To,
			Area:        ds.Network.Sector(curSector).Area,
			DistrictID:  ds.Network.Sector(curSector).DistrictID,
			LoadFactor:  intensity[bin],
			VoiceActive: r.Bool(voice),
		}
		out := ds.EPC.ExecuteHO(r, req, &w.epc)
		rec := trace.Record{
			Timestamp:  req.TimeMs,
			UE:         ue.ID,
			TAC:        model.TAC,
			Source:     curSector,
			Target:     out.Target,
			SourceRAT:  topology.FourG,
			TargetRAT:  out.TargetRAT,
			Result:     out.Result,
			Cause:      out.Cause,
			DurationMs: float32(out.DurationMs),
		}
		w.cols.AppendRecord(&rec)
		agg.Handovers++
		if out.Result == trace.Failure {
			agg.Failures++
		} else {
			if out.TargetRAT == topology.FourG {
				curSector = out.Target
			} else {
				// Vertical handover: the UE camps on the legacy RAT for a
				// while, then the anchor returns to a 4G sector at the
				// new site (upward transitions are invisible to the EPC).
				legacyHours[out.TargetRAT] += verticalDwellHours
				curSector = g.anchorSectorAt(r, ds.Network.Sector(out.Target).Site)
			}
		}
	}

	legacy := legacyHours[topology.TwoG] + legacyHours[topology.ThreeG]
	if legacy > up*0.8 {
		scale := up * 0.8 / legacy
		legacyHours[topology.TwoG] *= scale
		legacyHours[topology.ThreeG] *= scale
		legacy = up * 0.8
	}
	fourGHours := up - legacy
	agg.RATTimeHours[topology.FourG] = fourGHours
	agg.RATTimeHours[topology.TwoG] = legacyHours[topology.TwoG]
	agg.RATTimeHours[topology.ThreeG] = legacyHours[topology.ThreeG]
	noise := r.LogNormal(0, 0.4)
	agg.ULMB[topology.FourG] = fourGHours * ulRate[topology.FourG] * noise
	agg.DLMB[topology.FourG] = fourGHours * dlRate[topology.FourG] * noise
	for _, rat := range [...]topology.RAT{topology.TwoG, topology.ThreeG} {
		if legacyHours[rat] > 0 {
			agg.ULMB[rat] = legacyHours[rat] * ulRate[rat]
			agg.DLMB[rat] = legacyHours[rat] * dlRate[rat]
		}
	}
}

// anchorSectorAt picks a 4G sector at a site (every site carries 4G).
func (g *generator) anchorSectorAt(r *randx.Rand, site topology.SiteID) topology.SectorID {
	candidates := g.anchors[site]
	return candidates[r.Intn(len(candidates))]
}
