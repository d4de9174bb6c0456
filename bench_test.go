package telcolens

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"testing"

	"telcolens/internal/analysis"
	"telcolens/internal/randx"
	"telcolens/internal/simulate"
	"telcolens/internal/stats"
	"telcolens/internal/trace"
)

// The root benchmarks are the design evidence DESIGN.md §7 cites: the
// ablations and the sharded-scan scaling sweep. Performance of the
// pipeline itself is measured end to end by telcobench (bench/,
// BENCHMARK.json), not here. The ablations share one campaign,
// generated and scanned once.
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
		ds, benchErr = generateShared("ablations", cfg)
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
	ds, err := generateShared(fmt.Sprintf("shards%d", shards), cfg)
	if err != nil {
		b.Fatal(err)
	}
	shardBenchDS[shards] = ds
	return ds
}

func benchScanStore(b *testing.B, shards int, opts ...analysis.Option) {
	ds := shardBenchDataset(b, shards)
	total, err := trace.Count(ds.Config.Store)
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
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchScanStore(b, shards)
		})
	}
}

// --- Ablation benches (DESIGN.md §7) ---

// BenchmarkAblationQuantileSketch compares exact sample quantiles against
// the fixed-memory log-histogram sketch on the intra-HO duration stream.
func BenchmarkAblationQuantileSketch(b *testing.B) {
	a := benchSetup(b)
	var durations []float64
	err := trace.ForEach(a.DS.Config.Store, func(_ int, rec *trace.Record) error {
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
			h := newLogHist(0.1, 100000, 400)
			for _, d := range durations {
				h.Add(d)
			}
			_ = h.Quantile(0.95)
		}
	})
	// Report the approximation error once.
	h := newLogHist(0.1, 100000, 400)
	for _, d := range durations {
		h.Add(d)
	}
	exact := stats.Quantile(durations, 0.95)
	b.ReportMetric(math.Abs(h.Quantile(0.95)-exact)/exact*100, "sketch_err_pct")
}

// logHist is a fixed-memory quantile sketch over positive values using
// logarithmically spaced bins: the ablation alternative to exact sample
// collection for duration ECDFs (DESIGN.md §7). Relative quantile error
// is bounded by the bin growth factor.
type logHist struct {
	lo     float64 // lower bound of the first bin
	ratio  float64 // bin growth factor
	logR   float64
	counts []uint64
	zero   uint64 // values <= lo
	total  uint64
}

// newLogHist covers (lo, hi] with bins bins; lo > 0, hi > lo, bins >= 1.
func newLogHist(lo, hi float64, bins int) *logHist {
	ratio := math.Pow(hi/lo, 1/float64(bins))
	return &logHist{lo: lo, ratio: ratio, logR: math.Log(ratio), counts: make([]uint64, bins)}
}

func (h *logHist) Add(x float64) {
	h.total++
	if x <= h.lo {
		h.zero++
		return
	}
	if idx := int(math.Log(x/h.lo) / h.logR); idx < len(h.counts) {
		h.counts[idx]++
	}
}

// Quantile returns the geometric midpoint of the bin holding the q-th
// quantile; the under- and overflow regions return the range bounds.
func (h *logHist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := min(uint64(q*float64(h.total)), h.total-1)
	if target < h.zero {
		return h.lo
	}
	cum := h.zero
	for i, c := range h.counts {
		cum += c
		if target < cum {
			return h.lo * math.Pow(h.ratio, float64(i)) * math.Sqrt(h.ratio)
		}
	}
	return h.lo * math.Pow(h.ratio, float64(len(h.counts)))
}

func TestLogHistQuantiles(t *testing.T) {
	r := randx.New(3)
	h := newLogHist(0.1, 100000, 400)
	exact := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		v := r.LogNormalMedP95(43, 92)
		h.Add(v)
		exact = append(exact, v)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95} {
		approx, want := h.Quantile(q), stats.Quantile(exact, q)
		if math.Abs(approx-want)/want > 0.05 {
			t.Errorf("q=%g: sketch %g vs exact %g", q, approx, want)
		}
	}
}

func TestLogHistBounds(t *testing.T) {
	h := newLogHist(1, 100, 10)
	h.Add(0.5) // underflow
	h.Add(1e9) // overflow
	h.Add(10)  // in range
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("underflow quantile = %g", q)
	}
	if q := h.Quantile(0.99); q < 100 {
		t.Fatalf("overflow quantile = %g", q)
	}
}

// BenchmarkAblationHomeDetectionWindow sweeps the minimum-nights rule of
// the §4.3 home-detection algorithm and reports the census R² per setting.
func BenchmarkAblationHomeDetectionWindow(b *testing.B) {
	a := benchSetup(b)
	for _, minNights := range []int{3, 7, 10} {
		b.Run(fmt.Sprintf("minNights=%02d", minNights), func(b *testing.B) {
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

// BenchmarkAblationCodecVsCSV compares the binary trace codec (the v3
// block writer every partition goes through) against CSV export for one
// day of records (throughput and bytes per record).
func BenchmarkAblationCodecVsCSV(b *testing.B) {
	a := benchSetup(b)
	day := new(trace.ColumnBatch)
	err := trace.ForEach(a.DS.Config.Store, func(d int, rec *trace.Record) error {
		if d == 0 {
			day.AppendRecord(rec)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	records := float64(day.Len())

	b.Run("binary", func(b *testing.B) {
		var n int64
		for i := 0; i < b.N; i++ {
			cw := &countingWriter{}
			w, err := trace.NewWriterV3(cw, trace.WriterV3Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := w.WriteColumns(day); err != nil {
				b.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			w.Release()
			n = cw.n
		}
		b.ReportMetric(float64(n)/records, "bytes/record")
	})
	b.Run("csv", func(b *testing.B) {
		var n int64
		for i := 0; i < b.N; i++ {
			cw := &countingWriter{}
			if err := writeCSV(cw, day); err != nil {
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

// writeCSV writes a batch as CSV, one row per handover: the paper's six
// captured variables plus the TAC join key.
func writeCSV(w io.Writer, cb *trace.ColumnBatch) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"timestamp_ms", "ue", "tac", "source_sector", "target_sector",
		"source_rat", "target_rat", "result", "cause", "duration_ms",
	}); err != nil {
		return err
	}
	var rec trace.Record
	for i := 0; i < cb.Len(); i++ {
		cb.Record(i, &rec)
		if err := cw.Write([]string{
			strconv.FormatInt(rec.Timestamp, 10),
			strconv.FormatUint(uint64(rec.UE), 10),
			strconv.FormatUint(uint64(rec.TAC), 10),
			strconv.FormatUint(uint64(rec.Source), 10),
			strconv.FormatUint(uint64(rec.Target), 10),
			rec.SourceRAT.String(),
			rec.TargetRAT.String(),
			rec.Result.String(),
			strconv.FormatUint(uint64(rec.Cause), 10),
			strconv.FormatFloat(float64(rec.DurationMs), 'f', 1, 32),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// BenchmarkAblationRareBoost sweeps the 2G rare-event boost and reports
// the fitted 3G coefficient, demonstrating the ordering invariance claimed
// in DESIGN.md (small configs: each iteration generates a fresh campaign).
func BenchmarkAblationRareBoost(b *testing.B) {
	for _, boost := range []float64{1, 10, 100} {
		b.Run(fmt.Sprintf("boost=%g", boost), func(b *testing.B) {
			var coef3G float64
			for i := 0; i < b.N; i++ {
				cfg := simulate.DefaultConfig(99)
				cfg.UEs = 1200
				cfg.Days = 4
				cfg.RareBoost = boost
				store, err := NewFileStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				cfg.Store = store
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
