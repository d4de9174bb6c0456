package telcolens

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telcolens/internal/admission"
	"telcolens/internal/analysis"
	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/geo"
	"telcolens/internal/ingest"
	"telcolens/internal/mobility"
	"telcolens/internal/randx"
	"telcolens/internal/simulate"
	"telcolens/internal/stats"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// The benchmark harness regenerates every table and figure of the paper's
// evaluation against one shared campaign (generated once). Each benchmark
// measures the cost of recomputing the experiment from the cached scan;
// BenchmarkScan measures the one-pass trace scan itself.
var (
	benchOnce     sync.Once
	benchAnalyzer *Analyzer
	benchErr      error
)

func benchSetup(b *testing.B) *Analyzer {
	benchOnce.Do(func() {
		cfg := simulate.DefaultConfig(42)
		cfg.UEs = 6000
		cfg.Days = 14
		var ds *simulate.Dataset
		ds, benchErr = simulate.Generate(cfg)
		if benchErr != nil {
			return
		}
		benchAnalyzer, benchErr = analysis.New(ds)
		if benchErr != nil {
			return
		}
		_, benchErr = benchAnalyzer.Scan(context.Background()) // warm the shared scan
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchAnalyzer
}

func benchExperiment(b *testing.B, id string) {
	a := benchSetup(b)
	e, ok := analysis.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art, err := e.Run(context.Background(), a)
		if err != nil {
			b.Fatal(err)
		}
		if err := art.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table and figure.

func BenchmarkTable1DatasetStats(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkFig3aDeploymentEvolution(b *testing.B) { benchExperiment(b, "fig3a") }
func BenchmarkFig3bRATUsage(b *testing.B)            { benchExperiment(b, "fig3b") }
func BenchmarkFig4aManufacturers(b *testing.B)       { benchExperiment(b, "fig4a") }
func BenchmarkFig4bRATSupport(b *testing.B)          { benchExperiment(b, "fig4b") }
func BenchmarkFig5PopulationInference(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6HOsPerKm2(b *testing.B)            { benchExperiment(b, "fig6") }
func BenchmarkFig7Temporal(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkTable2HOTypeDevice(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkFig8Duration(b *testing.B)             { benchExperiment(b, "fig8") }
func BenchmarkFig9DistrictHOTypes(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10Mobility(b *testing.B)            { benchExperiment(b, "fig10") }
func BenchmarkFig11Manufacturer(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12HOFHourly(b *testing.B)           { benchExperiment(b, "fig12") }
func BenchmarkFig13HOFMobility(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14aCauses(b *testing.B)             { benchExperiment(b, "fig14a") }
func BenchmarkFig14bCauseDuration(b *testing.B)      { benchExperiment(b, "fig14b") }
func BenchmarkFig15CauseBreakdowns(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkTable3SectorDays(b *testing.B)         { benchExperiment(b, "table3") }
func BenchmarkTable4UnivariateModel(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkTable5FullModel(b *testing.B)          { benchExperiment(b, "table5") }
func BenchmarkTable6SummaryStats(b *testing.B)       { benchExperiment(b, "table6") }
func BenchmarkTable7NoTwoG(b *testing.B)             { benchExperiment(b, "table7") }
func BenchmarkTable8QuantileReg(b *testing.B)        { benchExperiment(b, "table8") }
func BenchmarkTable9QuantileRegAll(b *testing.B)     { benchExperiment(b, "table9") }
func BenchmarkFig16HOFRateECDF(b *testing.B)         { benchExperiment(b, "fig16") }
func BenchmarkFig17VendorMix(b *testing.B)           { benchExperiment(b, "fig17") }
func BenchmarkFig18VendorAreaBoxplots(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkANOVAHOType(b *testing.B)              { benchExperiment(b, "anova") }
func BenchmarkPingPongExtension(b *testing.B)        { benchExperiment(b, "pingpong") }

// codecBenchStore materializes the shared bench campaign into a
// file-backed store with the requested codec, once per codec. The dirs
// are shared for the process lifetime and removed by TestMain.
var (
	codecBenchMu   sync.Mutex
	codecBenchDirs = map[string]string{}
)

// TestMain cleans up the campaign-sized bench store directories —
// os.MkdirTemp does not remove them at exit, and repeated bench runs
// would otherwise accumulate them in the system temp dir.
func TestMain(m *testing.M) {
	code := m.Run()
	codecBenchMu.Lock()
	for _, dir := range codecBenchDirs {
		os.RemoveAll(dir)
	}
	codecBenchMu.Unlock()
	os.Exit(code)
}

func codecBenchStore(b *testing.B, label string, opts trace.FileStoreOptions) trace.Store {
	a := benchSetup(b)
	codecBenchMu.Lock()
	defer codecBenchMu.Unlock()
	dir, ok := codecBenchDirs[label]
	if !ok {
		var err error
		dir, err = os.MkdirTemp("", "telcolens-bench-"+label+"-*")
		if err != nil {
			b.Fatal(err)
		}
		fs, err := trace.NewFileStoreOpts(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		parts, err := a.DS.Store.Partitions()
		if err != nil {
			b.Fatal(err)
		}
		var cb trace.ColumnBatch
		for _, p := range parts {
			it, err := a.DS.Store.OpenPartition(p.Day, p.Shard)
			if err != nil {
				b.Fatal(err)
			}
			w, err := fs.AppendPartition(p.Day, p.Shard)
			if err != nil {
				b.Fatal(err)
			}
			for {
				n, err := it.NextColumns(&cb)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					break
				}
				if err := w.WriteColumns(&cb); err != nil {
					b.Fatal(err)
				}
			}
			it.Close()
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		codecBenchDirs[label] = dir
	}
	fs, err := trace.NewFileStoreOpts(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	return fs
}

// benchCountCollector is the cheapest possible collector, so raw scan
// benchmarks measure codec decode + iteration, not analysis state.
type benchCountCollector struct{ total int64 }

type benchCountShard struct{ n int64 }

func (c *benchCountCollector) NewShardState(day, shard int) trace.ShardState {
	return &benchCountShard{}
}

// ObserveColumns only counts, so the raw scan legs measure pure block
// decode plus iteration.
func (s *benchCountShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	s.n += int64(cb.Len())
	return nil
}

func (c *benchCountCollector) MergeShard(st trace.ShardState) error {
	c.total += st.(*benchCountShard).n
	return nil
}

// BenchmarkScan measures the streaming pass that feeds every experiment,
// in records/sec: the fused all-collector analysis scan over the
// in-memory store, and the raw (count-only) scan over file stores in
// both codecs. raw/v1 vs raw/v2 is the codec speedup the v2 block format
// exists for.
func BenchmarkScan(b *testing.B) {
	b.Run("fused/mem", func(b *testing.B) {
		a := benchSetup(b)
		total, err := trace.Count(a.DS.Store)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh, err := analysis.New(a.DS)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fresh.Scan(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	for _, c := range []struct {
		name string
		opts trace.FileStoreOptions
	}{
		{"raw/v1", trace.FileStoreOptions{Codec: trace.CodecV1}},
		{"raw/v2", trace.FileStoreOptions{Codec: trace.CodecV2}},
		{"raw/v2flate", trace.FileStoreOptions{Codec: trace.CodecV2, Compress: true}},
		{"raw/v3", trace.FileStoreOptions{Codec: trace.CodecV3}},
		{"raw/v3tlz", trace.FileStoreOptions{Codec: trace.CodecV3, FastCompress: true}},
		{"raw/v3flate", trace.FileStoreOptions{Codec: trace.CodecV3, Compress: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := codecBenchStore(b, strings.ReplaceAll(c.name, "/", "-"), c.opts)
			total, err := trace.Count(s)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col := &benchCountCollector{}
				if err := trace.Scan(context.Background(), s, trace.ScanOptions{}, col); err != nil {
					b.Fatal(err)
				}
				if col.total != total {
					b.Fatalf("scan saw %d records, want %d", col.total, total)
				}
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
	// Projected scan: the count collector reads no columns beyond the
	// timestamps, and the sectioned block layout lets v2 skip decoding
	// everything else — the headline advantage of a columnar format for
	// column-subset workloads (counting, temporal profiles).
	b.Run("raw/v2proj", func(b *testing.B) {
		s := codecBenchStore(b, "raw-v2", trace.FileStoreOptions{Codec: trace.CodecV2})
		total, err := trace.Count(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			col := &benchCountCollector{}
			opts := trace.ScanOptions{Projection: trace.ColTimestamp}
			if err := trace.Scan(context.Background(), s, opts, col); err != nil {
				b.Fatal(err)
			}
			if col.total != total {
				b.Fatalf("scan saw %d records, want %d", col.total, total)
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	// Paired measurement: the v1, v2, v3 and v2-projected scans alternate
	// inside the same timer window, so machine drift (shared runners,
	// thermal throttle) cancels out of the reported speedups in a way
	// independent sub-benchmarks cannot guarantee.
	b.Run("raw/speedup", func(b *testing.B) {
		s1 := codecBenchStore(b, "raw-v1", trace.FileStoreOptions{Codec: trace.CodecV1})
		s2 := codecBenchStore(b, "raw-v2", trace.FileStoreOptions{Codec: trace.CodecV2})
		s3 := codecBenchStore(b, "raw-v3", trace.FileStoreOptions{Codec: trace.CodecV3})
		var d1, d2, d3, dp time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range []struct {
				s    trace.Store
				opts trace.ScanOptions
				d    *time.Duration
			}{
				{s1, trace.ScanOptions{}, &d1},
				{s2, trace.ScanOptions{}, &d2},
				{s3, trace.ScanOptions{}, &d3},
				{s2, trace.ScanOptions{Projection: trace.ColTimestamp}, &dp},
			} {
				start := time.Now()
				col := &benchCountCollector{}
				if err := trace.Scan(context.Background(), m.s, m.opts, col); err != nil {
					b.Fatal(err)
				}
				*m.d += time.Since(start)
			}
		}
		if d2 > 0 {
			b.ReportMetric(d1.Seconds()/d2.Seconds(), "v2_full_speedup_x")
		}
		if d3 > 0 {
			b.ReportMetric(d1.Seconds()/d3.Seconds(), "v3_full_speedup_x")
			b.ReportMetric(d2.Seconds()/d3.Seconds(), "v3_vs_v2_x")
		}
		if dp > 0 {
			b.ReportMetric(d1.Seconds()/dp.Seconds(), "v2_proj_speedup_x")
		}
	})
}

// BenchmarkRunAll regenerates every experiment of the paper from one v2
// block store in a fresh analyzer per iteration.
func BenchmarkRunAll(b *testing.B) {
	a := benchSetup(b)
	s2 := codecBenchStore(b, "raw-v2", trace.FileStoreOptions{Codec: trace.CodecV2})
	total, err := trace.Count(s2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds := *a.DS // shallow copy with the store swapped
			ds.Store = s2
			fresh, err := NewAnalyzer(&ds)
			if err != nil {
				b.Fatal(err)
			}
			if err := RunAll(context.Background(), fresh, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	// postscan isolates the post-scan constant: the analyzer is warmed
	// once (collectors computed, state finalized), then each iteration
	// re-runs every experiment body — quantile regressions, summaries,
	// regression rows, rendering — without touching the trace store. This
	// is the constant a counterfactual-replay pass pays per policy.
	b.Run("postscan", func(b *testing.B) {
		ds := *a.DS
		ds.Store = s2
		warm, err := NewAnalyzer(&ds)
		if err != nil {
			b.Fatal(err)
		}
		if err := RunAll(context.Background(), warm, io.Discard); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := RunAll(context.Background(), warm, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// refreshBenchState is the shared fixture for BenchmarkRefresh: a
// 31-day file-backed campaign whose first 30 days are covered by a
// checkpoint, with day 31 landed afterwards (the growing-feed scenario).
type refreshBenchState struct {
	ds    *simulate.Dataset
	ckpt  []byte
	total int64
}

var (
	refreshBenchOnce sync.Once
	refreshBenchSt   *refreshBenchState
	refreshBenchErr  error
)

func refreshBenchSetup(b *testing.B) *refreshBenchState {
	refreshBenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "telcolens-bench-refresh-*")
		if err != nil {
			refreshBenchErr = err
			return
		}
		codecBenchMu.Lock()
		codecBenchDirs["refresh"] = dir // reuse TestMain's cleanup
		codecBenchMu.Unlock()
		fs, err := trace.NewFileStore(dir)
		if err != nil {
			refreshBenchErr = err
			return
		}
		cfg := simulate.DefaultConfig(42)
		cfg.UEs = 6000
		cfg.Days = 30
		cfg.Store = fs
		ds, err := simulate.Generate(cfg)
		if err != nil {
			refreshBenchErr = err
			return
		}
		warm, err := analysis.New(ds)
		if err != nil {
			refreshBenchErr = err
			return
		}
		ctx := context.Background()
		if _, err := warm.Scan(ctx); err != nil {
			refreshBenchErr = err
			return
		}
		if _, err := warm.PingPongAll(ctx, analysis.StandardPingPongWindows); err != nil {
			refreshBenchErr = err
			return
		}
		var ckpt bytes.Buffer
		if err := warm.Checkpoint(&ckpt); err != nil {
			refreshBenchErr = err
			return
		}
		if err := ds.GenerateDays(1); err != nil { // day 31 lands
			refreshBenchErr = err
			return
		}
		total, err := trace.Count(ds.Store)
		if err != nil {
			refreshBenchErr = err
			return
		}
		refreshBenchSt = &refreshBenchState{ds: ds, ckpt: ckpt.Bytes(), total: total}
	})
	if refreshBenchErr != nil {
		b.Fatal(refreshBenchErr)
	}
	return refreshBenchSt
}

// BenchmarkRefresh is the incremental-engine pair: computing every
// RunAll scan-state unit (the fused NeedAll scan plus the ping-pong
// pass) for a 31-day store from scratch, against checkpoint-resume +
// Refresh after 1 new day landed. Both arms end with identical warm
// state (artifacts render byte-identically from either; the render
// stage itself is the same either way and is benchmarked per experiment
// above). The refresh arm asserts via ScanMetrics that only the new
// day's partitions were scanned.
func BenchmarkRefresh(b *testing.B) {
	st := refreshBenchSetup(b)
	ctx := context.Background()
	days := st.ds.Config.Days
	full := func() {
		a, err := analysis.New(st.ds)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Scan(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := a.PingPongAll(ctx, analysis.StandardPingPongWindows); err != nil {
			b.Fatal(err)
		}
	}
	refresh := func() {
		a, err := analysis.ResumeAnalyzer(st.ds, bytes.NewReader(st.ckpt))
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Refresh(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.FullRescan || res.PartitionsScanned != 1 {
			b.Fatalf("refresh of 1 new day scanned %d partitions (full rescan: %v), want exactly 1",
				res.PartitionsScanned, res.FullRescan)
		}
		if scanned := a.ScanStats().Partitions; scanned != 1 {
			b.Fatalf("ScanStats shows %d partitions read of a %d-day store, want only the new day's 1",
				scanned, days)
		}
		if _, err := a.PingPongAll(ctx, analysis.StandardPingPongWindows); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			full()
		}
		b.ReportMetric(float64(st.total)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("refresh1day", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refresh()
		}
	})
	// Paired measurement inside one timer window, so machine drift
	// cancels out of the reported speedup.
	b.Run("speedup", func(b *testing.B) {
		var dFull, dRefresh time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			full()
			dFull += time.Since(start)
			start = time.Now()
			refresh()
			dRefresh += time.Since(start)
		}
		if dRefresh > 0 {
			b.ReportMetric(dFull.Seconds()/dRefresh.Seconds(), "refresh_speedup_x")
		}
	})
}

// BenchmarkScanRange pits a one-day windowed scan against the full-month
// scan on the same v2 block store: the pruned scan touches only the
// blocks whose descriptors intersect the window.
func BenchmarkScanRange(b *testing.B) {
	opts := trace.FileStoreOptions{Codec: trace.CodecV2}
	s := codecBenchStore(b, "raw-v2", opts)
	day := 7
	b.Run("fullmonth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			col := &benchCountCollector{}
			if err := trace.Scan(context.Background(), s, trace.ScanOptions{}, col); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("1day", func(b *testing.B) {
		var blocksRead, blocksTotal int64
		for i := 0; i < b.N; i++ {
			var m trace.ScanMetrics
			col := &benchCountCollector{}
			err := trace.ScanRange(context.Background(), s, trace.ScanOptions{Metrics: &m},
				trace.DayRange(day, day), col)
			if err != nil {
				b.Fatal(err)
			}
			blocksRead = m.BlocksRead.Load()
			blocksTotal = blocksRead + m.BlocksSkipped.Load()
		}
		if blocksTotal > 0 {
			b.ReportMetric(100*float64(blocksRead)/float64(blocksTotal), "blocks_decoded_pct")
		}
	})
}

// BenchmarkScanSharded measures the same fused scan over stores holding
// 1, 4 and 8 shards per day, scanned with full parallelism, against a
// strictly sequential baseline (parallelism=1). The parallel/sequential
// gap quantifies what the partitioned v2 engine buys; it only shows on
// multi-core hardware (GOMAXPROCS=1 serializes the worker pool). Note a
// day-partitioned store already exposes Days-many partitions, so extra
// shards matter most when days < cores or for single-day scans.
var (
	shardBenchMu sync.Mutex
	shardBenchDS = map[int]*simulate.Dataset{}
)

func shardBenchDataset(b *testing.B, shards int) *simulate.Dataset {
	shardBenchMu.Lock()
	defer shardBenchMu.Unlock()
	if ds, ok := shardBenchDS[shards]; ok {
		return ds
	}
	cfg := simulate.DefaultConfig(42)
	cfg.UEs = 6000
	cfg.Days = 14
	cfg.Shards = shards
	ds, err := simulate.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	shardBenchDS[shards] = ds
	return ds
}

func benchScanStore(b *testing.B, shards int, opts ...analysis.Option) {
	ds := shardBenchDataset(b, shards)
	total, err := trace.Count(ds.Store)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := analysis.New(ds, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fresh.Scan(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkScanSharded(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		benchScanStore(b, 1, analysis.WithParallelism(1))
	})
	for _, shards := range []int{1, 4, 8} {
		b.Run(shardLabel(shards), func(b *testing.B) {
			benchScanStore(b, shards)
		})
	}
}

func shardLabel(n int) string {
	return fmt.Sprintf("shards=%d", n)
}

// writeBenchData synthesizes one partition's worth of records shaped
// like real generation output (sorted timestamps, sequential UE id
// space, a few hundred distinct TACs) in columnar form.
var (
	writeBenchOnce sync.Once
	writeBenchCols trace.ColumnBatch
)

func writeBenchData() *trace.ColumnBatch {
	writeBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(9))
		const n = 200_000
		base := trace.StudyStart.UnixMilli()
		recs := make([]trace.Record, n)
		for i := range recs {
			rec := trace.Record{
				Timestamp: base + int64(i)*700,
				UE:        trace.UEID(i % 20_000),
				TAC:       devices.TAC(35_000_000 + rng.Intn(500)),
				Source:    topology.SectorID(rng.Intn(10_000)),
				Target:    topology.SectorID(rng.Intn(10_000)),
				SourceRAT: topology.FourG,
				TargetRAT: topology.RAT(rng.Intn(4)),
			}
			if rng.Intn(50) == 0 {
				rec.Result = trace.Failure
				rec.Cause = causes.Code(1 + rng.Intn(900))
				rec.DurationMs = float32(rng.Intn(30_000))
			} else {
				rec.DurationMs = float32(rng.Intn(3000)) / 10
			}
			recs[i] = rec
		}
		writeBenchCols.FromRecords(recs)
	})
	return &writeBenchCols
}

// BenchmarkWrite measures encoding one partition's records as a block
// stream from SoA slices (sequential per-column passes, pooled zero-alloc
// scratch): v2 plain and flate-compressed, v3 plain, TLZ- and
// flate-compressed, plus the paired v2-vs-v3 ratio inside one timer
// window so machine drift cancels out.
func BenchmarkWrite(b *testing.B) {
	cb := writeBenchData()
	n := int64(cb.Len())
	// encode takes the subtest's own *testing.B: each b.Run body runs on
	// its own goroutine, and Fatal must be called from that goroutine.
	encode := func(b *testing.B, compress bool) {
		w, err := trace.NewWriterV2(io.Discard, trace.WriterV2Options{Compress: compress})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteColumns(cb); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if w.Count() != n {
			b.Fatalf("encoded %d records, want %d", w.Count(), n)
		}
		w.Release()
	}
	for _, c := range []struct {
		name     string
		compress bool
	}{{"column", false}, {"flate/column", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encode(b, c.compress)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
	encodeV3 := func(b *testing.B, opts trace.WriterV3Options) {
		w, err := trace.NewWriterV3(io.Discard, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteColumns(cb); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if w.Count() != n {
			b.Fatalf("encoded %d records, want %d", w.Count(), n)
		}
		w.Release()
	}
	for _, c := range []struct {
		name string
		opts trace.WriterV3Options
	}{
		{"v3/column", trace.WriterV3Options{}},
		{"v3tlz/column", trace.WriterV3Options{FastCompress: true}},
		{"v3flate/column", trace.WriterV3Options{Compress: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeV3(b, c.opts)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
	b.Run("v3/speedup", func(b *testing.B) {
		var d2, d3 time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			encode(b, false)
			d2 += time.Since(start)
			start = time.Now()
			encodeV3(b, trace.WriterV3Options{})
			d3 += time.Since(start)
		}
		if d3 > 0 {
			b.ReportMetric(d2.Seconds()/d3.Seconds(), "v3_vs_v2_x")
		}
	})
}

// BenchmarkGenerateDay measures end-to-end generation throughput: the
// full campaign build landing in an in-memory store through the
// columnar write path. The simulation itself dominates; the isolated
// encode cost is BenchmarkWrite.
func BenchmarkGenerateDay(b *testing.B) {
	b.Run("column", func(b *testing.B) {
		var handovers int64
		for i := 0; i < b.N; i++ {
			cfg := simulate.DefaultConfig(7)
			cfg.UEs = 1500
			cfg.Days = 1
			cfg.Seed = uint64(i + 1)
			ds, err := simulate.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			handovers += ds.TotalHandovers()
		}
		b.ReportMetric(float64(handovers)/b.Elapsed().Seconds(), "HOs/s")
	})
}

// plannerBenchWorld builds, once, the default world (320 districts, 2400
// sites, 4000 UEs) the generation hot-path benches plan over.
var (
	plannerBenchOnce sync.Once
	plannerBenchDS   *simulate.Dataset
	plannerBenchErr  error
)

func plannerBenchWorld(b *testing.B) *simulate.Dataset {
	plannerBenchOnce.Do(func() {
		cfg := simulate.DefaultConfig(7)
		cfg.UEs = 4000
		plannerBenchDS, plannerBenchErr = simulate.BuildWorld(cfg)
	})
	if plannerBenchErr != nil {
		b.Fatal(plannerBenchErr)
	}
	return plannerBenchDS
}

// linearNearestDistrict is the planner's former inner loop — a scan of
// every district centre under geo.DistanceKm, first minimum wins — kept
// here as the baseline arm (and as a check that the index agrees).
func linearNearestDistrict(centers []geo.Point, pt geo.Point) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range centers {
		if d := geo.DistanceKm(pt, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// BenchmarkNearestDistrict pairs the two ways of answering the mobility
// planner's per-excursion-step question, "which district centre is
// nearest to this waypoint": the linear scan against the exact spatial
// index (geo.NearestIndex). Waypoints are drawn like the planner's —
// points along the line between two sites. One op is a sweep over all
// 8192 waypoints (the gate runs benches at -benchtime 2x, so an op has
// to be milliseconds, not nanoseconds); ns/query is reported beside it.
// The speedup arm interleaves the two and checks they agree.
func BenchmarkNearestDistrict(b *testing.B) {
	ds := plannerBenchWorld(b)
	centers := make([]geo.Point, len(ds.Country.Districts))
	for i, d := range ds.Country.Districts {
		centers[i] = d.Center
	}
	index := geo.NewNearestIndex(centers)
	rng := rand.New(rand.NewSource(7))
	waypoints := make([]geo.Point, 8192)
	for i := range waypoints {
		from := ds.Network.Sites[rng.Intn(len(ds.Network.Sites))].Loc
		to := ds.Network.Sites[rng.Intn(len(ds.Network.Sites))].Loc
		f := rng.Float64()
		waypoints[i] = geo.Point{Lat: from.Lat + (to.Lat-from.Lat)*f, Lon: from.Lon + (to.Lon-from.Lon)*f}
	}
	var sink int
	sweepLinear := func() {
		for _, q := range waypoints {
			sink += linearNearestDistrict(centers, q)
		}
	}
	sweepIndexed := func() {
		for _, q := range waypoints {
			sink += index.Nearest(q)
		}
	}
	perQuery := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(waypoints)), "ns/query")
	}
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweepLinear()
		}
		perQuery(b)
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweepIndexed()
		}
		perQuery(b)
	})
	b.Run("speedup", func(b *testing.B) {
		var dLin, dIdx time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			sweepLinear()
			dLin += time.Since(start)
			start = time.Now()
			sweepIndexed()
			dIdx += time.Since(start)
		}
		for _, q := range waypoints {
			if got, want := index.Nearest(q), linearNearestDistrict(centers, q); got != want {
				b.Fatalf("index answers %d for %v, linear scan %d", got, q, want)
			}
		}
		if dIdx > 0 {
			b.ReportMetric(dLin.Seconds()/dIdx.Seconds(), "index_speedup_x")
		}
	})
	_ = sink
}

// BenchmarkPlanDay measures mobility planning — the generation hot
// path's largest share — through a worker Scratch, as simulate drives
// it. One op plans a day for each of the 4000 UEs. With -benchmem it
// must report 0 allocs/op (the hard assertion is
// TestPlanDaySteadyStateAllocs in `make alloc-check`).
func BenchmarkPlanDay(b *testing.B) {
	ds := plannerBenchWorld(b)
	planner, err := mobility.NewPlanner(ds.Country, ds.Network)
	if err != nil {
		b.Fatal(err)
	}
	r := randx.New(1)
	var scratch mobility.Scratch
	moves := 0
	planAll := func(day int) {
		for i := range ds.Population.UEs {
			ue := &ds.Population.UEs[i]
			moves += len(planner.PlanDay(r, ue, ds.Population.Model(ue), day, &scratch).Moves)
		}
	}
	for day := 0; day < 3; day++ {
		planAll(day) // grow the scratch to steady state
	}
	moves = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planAll(i % 28)
	}
	b.ReportMetric(float64(b.N*ds.Population.Len())/b.Elapsed().Seconds(), "UE-days/s")
	b.ReportMetric(float64(moves)/b.Elapsed().Seconds(), "moves/s")
}

// ingestBenchData synthesizes one study day of ingest-shaped records as
// request-sized column chunks for day 0 (timestamps deliberately
// unsorted — the seal's canonical sort is part of the measured path);
// the benchmark rebases chunks onto later days by shifting timestamps.
var (
	ingestBenchOnce   sync.Once
	ingestBenchChunks []*trace.ColumnBatch
)

func ingestBenchData() []*trace.ColumnBatch {
	ingestBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(11))
		const n, chunk = 50_000, 4096
		base := trace.DayStart(0).UnixMilli()
		var cb *trace.ColumnBatch
		for i := 0; i < n; i++ {
			if i%chunk == 0 {
				cb = new(trace.ColumnBatch)
				ingestBenchChunks = append(ingestBenchChunks, cb)
			}
			rec := trace.Record{
				Timestamp:  base + int64(rng.Intn(86_400_000)),
				UE:         trace.UEID(i % 20_000),
				TAC:        devices.TAC(35_000_000 + rng.Intn(500)),
				Source:     topology.SectorID(rng.Intn(10_000)),
				Target:     topology.SectorID(rng.Intn(10_000)),
				SourceRAT:  topology.FourG,
				TargetRAT:  topology.RAT(rng.Intn(4)),
				DurationMs: float32(rng.Intn(3000)) / 10,
			}
			if rng.Intn(50) == 0 {
				rec.Result = trace.Failure
				rec.Cause = causes.Code(1 + rng.Intn(900))
			}
			cb.AppendRecord(&rec)
		}
	})
	return ingestBenchChunks
}

func ingestBenchService(b *testing.B, dir string) *ingest.Service {
	b.Helper()
	svc, err := ingest.Open(dir, ingest.Options{})
	if err != nil {
		b.Fatal(err)
	}
	meta := &simulate.CampaignMeta{
		Config: simulate.Config{Seed: 11, Days: 0, WindowDays: 1000, UEs: 20_000},
		Codec:  trace.CodecV2,
	}
	if err := svc.Init(meta); err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkIngest measures the streaming ingest write path: the append
// arm isolates the per-request hot path (WAL frame encode + fsync-free
// append + memtable gather) by sealing outside the timer window; the
// day arm is the end-to-end cycle a live feed pays per study day —
// request-sized appends, then DayComplete's synced WAL mark and the
// seal itself (canonical sort, v2 partition encode, campaign manifest
// bump, WAL retirement). Both rotate onto a fresh directory every 64
// sealed days so disk usage stays bounded across long runs.
func BenchmarkIngest(b *testing.B) {
	chunks := ingestBenchData()
	perDay := 0
	for _, c := range chunks {
		perDay += c.Len()
	}
	shift := func(dst, src *trace.ColumnBatch, day int) {
		dst.Reset()
		dst.AppendColumns(src)
		off := trace.DayStart(day).UnixMilli() - trace.DayStart(0).UnixMilli()
		for i := range dst.Timestamps {
			dst.Timestamps[i] += off
		}
	}
	const rotateDays = 64
	b.Run("append", func(b *testing.B) {
		svc := ingestBenchService(b, b.TempDir())
		defer func() { svc.Close() }()
		var scratch trace.ColumnBatch
		var seq uint64
		day, pending, appended := 0, 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shift(&scratch, chunks[i%len(chunks)], day)
			seq++
			if _, err := svc.Append(1, seq, &scratch); err != nil {
				b.Fatal(err)
			}
			pending += scratch.Len()
			appended += scratch.Len()
			if pending >= perDay {
				b.StopTimer()
				agg := simulate.DayAggregate{Handovers: int64(pending)}
				if err := svc.DayComplete(day, agg); err != nil {
					b.Fatal(err)
				}
				pending = 0
				if day++; day%rotateDays == 0 {
					svc.Close()
					svc = ingestBenchService(b, b.TempDir())
					day = 0
				}
				b.StartTimer()
			}
		}
		b.ReportMetric(float64(appended)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("day", func(b *testing.B) {
		svc := ingestBenchService(b, b.TempDir())
		defer func() { svc.Close() }()
		var scratch trace.ColumnBatch
		var seq uint64
		day := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range chunks {
				shift(&scratch, c, day)
				seq++
				if _, err := svc.Append(1, seq, &scratch); err != nil {
					b.Fatal(err)
				}
			}
			agg := simulate.DayAggregate{Handovers: int64(perDay)}
			if err := svc.DayComplete(day, agg); err != nil {
				b.Fatal(err)
			}
			if day++; day%rotateDays == 0 {
				b.StopTimer()
				svc.Close()
				svc = ingestBenchService(b, b.TempDir())
				day = 0
				b.StartTimer()
			}
		}
		b.ReportMetric(float64(perDay)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// --- Ablation benches (DESIGN.md §7) ---

// BenchmarkAblationQuantileSketch compares exact sample quantiles against
// the fixed-memory log-histogram sketch on the intra-HO duration stream.
func BenchmarkAblationQuantileSketch(b *testing.B) {
	a := benchSetup(b)
	var durations []float64
	err := trace.ForEach(a.DS.Store, func(_ int, rec *trace.Record) error {
		if rec.Result == trace.Success && rec.HOType() == 0 {
			durations = append(durations, float64(rec.DurationMs))
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = stats.Quantile(durations, 0.95)
		}
	})
	b.Run("loghist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := stats.NewLogHist(0.1, 100000, 400)
			for _, d := range durations {
				h.Add(d)
			}
			_ = h.Quantile(0.95)
		}
	})
	// Report the approximation error once.
	h := stats.NewLogHist(0.1, 100000, 400)
	for _, d := range durations {
		h.Add(d)
	}
	exact := stats.Quantile(durations, 0.95)
	b.ReportMetric(math.Abs(h.Quantile(0.95)-exact)/exact*100, "sketch_err_pct")
}

// BenchmarkAblationHomeDetectionWindow sweeps the minimum-nights rule of
// the §4.3 home-detection algorithm and reports the census R² per setting.
func BenchmarkAblationHomeDetectionWindow(b *testing.B) {
	a := benchSetup(b)
	for _, minNights := range []int{3, 7, 10} {
		b.Run(nightsLabel(minNights), func(b *testing.B) {
			var r2 float64
			for i := 0; i < b.N; i++ {
				counts, _, err := a.HomeDetection(context.Background(), minNights)
				if err != nil {
					b.Fatal(err)
				}
				r2 = censusR2(b, a, counts)
			}
			b.ReportMetric(r2, "r2")
		})
	}
}

func nightsLabel(n int) string {
	return "minNights=" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func censusR2(b *testing.B, a *Analyzer, counts []int) float64 {
	b.Helper()
	var xs, ys []float64
	for i, c := range counts {
		if c > 0 {
			xs = append(xs, float64(c))
			ys = append(ys, float64(a.DS.Country.Districts[i].Population))
		}
	}
	X := make([][]float64, len(xs))
	for i := range xs {
		X[i] = []float64{xs[i]}
	}
	m, err := stats.FitOLS(ys, X, []string{"inferred"}, true)
	if err != nil {
		b.Fatal(err)
	}
	return m.R2
}

// BenchmarkAblationCodecVsCSV compares the binary trace codec against CSV
// export for one day of records (throughput and bytes per record).
func BenchmarkAblationCodecVsCSV(b *testing.B) {
	a := benchSetup(b)
	day := new(trace.ColumnBatch)
	parts, err := a.DS.Store.Partitions()
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range parts {
		if p.Day == 0 {
			day.AppendColumns(readPartition(b, a.DS.Store, p, false))
		}
	}
	records := float64(day.Len())

	b.Run("binary", func(b *testing.B) {
		var n int64
		for i := 0; i < b.N; i++ {
			cw := &countingWriter{}
			w, err := trace.NewWriter(cw)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.WriteColumns(day); err != nil {
				b.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			n = cw.n
		}
		b.ReportMetric(float64(n)/records, "bytes/record")
	})
	b.Run("csv", func(b *testing.B) {
		var n int64
		for i := 0; i < b.N; i++ {
			cw := &countingWriter{}
			if _, err := trace.ExportCSV(cw, &batchIterator{cb: day}); err != nil {
				b.Fatal(err)
			}
			n = cw.n
		}
		b.ReportMetric(float64(n)/records, "bytes/record")
	})
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// batchIterator hands out one in-memory batch, then end of stream.
type batchIterator struct {
	cb   *trace.ColumnBatch
	done bool
}

func (it *batchIterator) NextColumns(cb *trace.ColumnBatch) (int, error) {
	if it.done {
		return 0, nil
	}
	it.done = true
	cb.Reset()
	cb.AppendColumns(it.cb)
	return cb.Len(), nil
}

func (it *batchIterator) Close() error { return nil }

// readPartition reads partition p as one batch: only its first decoded
// batch with firstOnly set, else every row.
func readPartition(b *testing.B, s trace.Store, p trace.Partition, firstOnly bool) *trace.ColumnBatch {
	it, err := s.OpenPartition(p.Day, p.Shard)
	if err != nil {
		b.Fatal(err)
	}
	defer it.Close()
	out := new(trace.ColumnBatch)
	var cb trace.ColumnBatch
	for {
		n, err := it.NextColumns(&cb)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out.AppendColumns(&cb)
		if firstOnly {
			return out
		}
	}
}

// BenchmarkAblationRareBoost sweeps the 2G rare-event boost and reports
// the fitted 3G coefficient, demonstrating the ordering invariance claimed
// in DESIGN.md (small configs: each iteration generates a fresh campaign).
func BenchmarkAblationRareBoost(b *testing.B) {
	for _, boost := range []float64{1, 10, 100} {
		b.Run(boostLabel(boost), func(b *testing.B) {
			var coef3G float64
			for i := 0; i < b.N; i++ {
				cfg := simulate.DefaultConfig(99)
				cfg.UEs = 1200
				cfg.Days = 4
				cfg.RareBoost = boost
				ds, err := simulate.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				an, err := analysis.New(ds)
				if err != nil {
					b.Fatal(err)
				}
				m, err := an.FitHOTypeModel(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				for j, name := range m.Names {
					if name == "HO type: 4G/5G-NSA->3G" {
						coef3G = m.Coef[j]
					}
				}
			}
			b.ReportMetric(coef3G, "coef3G")
		})
	}
}

func boostLabel(f float64) string {
	switch f {
	case 1:
		return "boost=1"
	case 10:
		return "boost=10"
	default:
		return "boost=100"
	}
}

// BenchmarkQuery measures the ad-hoc serving path over the shared
// campaign written to an indexed v2 file store: a single-UE point
// lookup (index pruning at its best), a day-windowed TAC slice, the
// cold path (fresh engine, empty cache), the cache hit path, and a
// parallel load leg reporting tail latency.
func BenchmarkQuery(b *testing.B) {
	store := codecBenchStore(b, "query-v2", trace.FileStoreOptions{Codec: trace.CodecV2})
	view, err := NewQueryView(store)
	if err != nil {
		b.Fatal(err)
	}
	// Pin a real subscriber and device so the queries return rows.
	probe := readPartition(b, store, view.Partitions[0].Partition(), true)
	if probe.Len() == 0 {
		b.Fatal("empty first partition")
	}
	ue := probe.UEs[0]
	tac := uint32(probe.TACs[0])
	day0 := trace.DayRange(0, 0)
	ctx := context.Background()

	run := func(name string, p QueryParams, purge bool) {
		b.Run(name, func(b *testing.B) {
			eng := NewQueryEngine(store)
			if !purge { // warm the cache once for the hit path
				if _, _, err := eng.Query(ctx, view, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if purge {
					eng.InvalidateCache()
				}
				res, _, err := eng.Query(ctx, view, p)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 && p.UE != nil {
					b.Fatal("probe query returned no rows")
				}
			}
		})
	}
	run("point", QueryParams{UE: &ue}, true)
	run("window", QueryParams{TAC: &tac, From: day0.MinTS, To: day0.MaxTS, Limit: 500}, true)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := NewQueryEngine(store)
			if _, _, err := eng.Query(ctx, view, QueryParams{UE: &ue}); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("cached", QueryParams{UE: &ue}, false)

	// load: GOMAXPROCS goroutines hammering a small query mix against
	// one shared engine (the serving topology), reporting achieved qps
	// and p99 latency.
	b.Run("load", func(b *testing.B) {
		eng := NewQueryEngine(store)
		var mu sync.Mutex
		var lats []time.Duration
		b.ResetTimer()
		start := time.Now()
		b.RunParallel(func(pb *testing.PB) {
			local := make([]time.Duration, 0, 1024)
			i := 0
			for pb.Next() {
				p := QueryParams{UE: &ue}
				if i%4 == 3 { // every 4th query misses the cache
					eng.InvalidateCache()
				}
				i++
				t0 := time.Now()
				if _, _, err := eng.Query(ctx, view, p); err != nil {
					b.Fatal(err)
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		})
		elapsed := time.Since(start)
		if len(lats) == 0 {
			return
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "qps")
		b.ReportMetric(float64(lats[len(lats)/2].Microseconds()), "p50-µs")
		b.ReportMetric(float64(lats[len(lats)*99/100].Microseconds()), "p99-µs")
	})
}

// BenchmarkOverload measures the admission-controlled serving path
// driven at twice its declared capacity: GOMAXPROCS query slots with no
// wait queue, hammered by 2×GOMAXPROCS clients running the
// BenchmarkQuery load mix. Requests that clear admission report
// achieved qps and p50/p99 latency; the excess sheds (the 429 path in
// telcoserve) and is counted, not timed. The property under test is
// that load shedding keeps the accepted-request tail flat instead of
// letting every request queue and time out together — p99 here is the
// declared overload bound the CI bench gate tracks.
func BenchmarkOverload(b *testing.B) {
	store := codecBenchStore(b, "query-v2", trace.FileStoreOptions{Codec: trace.CodecV2})
	view, err := NewQueryView(store)
	if err != nil {
		b.Fatal(err)
	}
	probe := readPartition(b, store, view.Partitions[0].Partition(), true)
	if probe.Len() == 0 {
		b.Fatal("empty first partition")
	}
	ue := probe.UEs[0]

	slots := runtime.GOMAXPROCS(0)
	ctrl := admission.NewController(admission.Config{
		QuerySlots: slots,
		QueryQueue: -1, // no queue: over-capacity arrivals shed immediately
		// The detector stays quiet: the benchmark measures steady-state
		// shedding throughput, not the degraded-mode flip (that's
		// TestOverloadShedsAndHealthz's job).
		OverloadThreshold: 1 << 30,
	})
	eng := NewQueryEngine(store)
	ctx := context.Background()

	var mu sync.Mutex
	var lats []time.Duration
	var shed atomic.Int64
	b.SetParallelism(2) // 2× the admitted capacity
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 1024)
		i := 0
		for pb.Next() {
			release, err := ctrl.Admit(ctx, admission.ClassQuery)
			if err != nil {
				// A real shed costs the client a Retry-After backoff; an
				// unpaced spin here would let rejections dominate the
				// iteration count and starve the measurement.
				shed.Add(1)
				time.Sleep(500 * time.Microsecond)
				continue
			}
			if i%4 == 3 { // every 4th admitted query misses the cache
				eng.InvalidateCache()
			}
			i++
			t0 := time.Now()
			_, _, qerr := eng.Query(ctx, view, QueryParams{UE: &ue})
			release()
			if qerr != nil {
				b.Fatal(qerr)
			}
			local = append(local, time.Since(t0))
		}
		mu.Lock()
		lats = append(lats, local...)
		mu.Unlock()
	})
	elapsed := time.Since(start)
	if len(lats) == 0 {
		return // a 1x smoke run can shed its only request
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	total := float64(len(lats)) + float64(shed.Load())
	b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "qps")
	b.ReportMetric(float64(lats[len(lats)/2].Microseconds()), "p50-µs")
	b.ReportMetric(float64(lats[len(lats)*99/100].Microseconds()), "p99-µs")
	b.ReportMetric(100*float64(shed.Load())/total, "shed_pct")
}
