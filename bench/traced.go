package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"telcolens/internal/admission"
	"telcolens/internal/analysis"
	"telcolens/internal/faultfs"
	"telcolens/internal/ingest"
	"telcolens/internal/query"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// perLayer lists every per-layer metric of the traced run with its unit.
// Every traced run reports all of them; one a workload does not exercise
// reads 0, which is itself the prediction ("ingest does nothing on
// serve.read"). BENCHMARK.json repeats the list; spec_test.go holds the
// two together.
var perLayer = []struct{ name, unit string }{
	// simulate
	{"gen_records_per_s", "1/s"},
	// trace (probes around trace.Scan and the block writer; per-query
	// counts from query.Result.Metrics)
	{"scan_records_per_s", "1/s"},
	{"encode_records_per_s", "1/s"},
	{"blocks_decoded_per_query", "count"},
	{"bytes_read_per_query", "B"},
	{"rows_scanned_per_row_returned", "ratio"},
	// analysis (+ stats, report)
	{"scan_s", "s"},
	{"finalize_s", "s"},
	{"experiments_s", "s"},
	{"refresh_ms", "ms"},
	{"refresh_partitions", "count"},
	// query
	{"engine_hit_us", "us"},
	{"engine_miss_point_ms", "ms"},
	{"engine_miss_tac_ms", "ms"},
	{"engine_miss_slice_ms", "ms"},
	{"cache_hit_ratio", "ratio"},
	{"partitions_pruned_ratio", "ratio"},
	// admission
	{"admit_ns", "ns"},
	// ingest
	{"append_us_per_batch", "us"},
	{"seal_ms_per_day", "ms"},
	{"wal_bytes_per_record", "B"},
	// faultfs (device), per traced op
	{"fs_reads_per_op", "count"},
	{"fs_read_bytes_per_op", "B"},
	{"fs_writes_per_op", "count"},
	{"fs_write_bytes_per_op", "B"},
	{"fs_fsyncs_per_op", "count"},
	{"fs_renames_per_op", "count"},
	{"fs_us_per_call", "us"},
	{"write_amplification", "ratio"},
	// self time per traced op, by layer
	{"self_ms_simulate", "ms"},
	{"self_ms_analysis", "ms"},
	{"self_ms_query", "ms"},
	{"self_ms_ingest", "ms"},
	{"self_ms_admission", "ms"},
	{"self_ms_faultfs", "ms"},
	{"self_ms_bench", "ms"},
	// the traced run itself
	{"op_wall_ms", "ms"},
	{"layers_share_of_op", "ratio"},
	{"traced_ops", "count"},
	{"trace_overhead_pct", "%"},
}

// tracedRun is the shared body of a traced replay: C generated
// in-process through the counting filesystem, the layer probes, and the
// bookkeeping that turns spans and counts into the per-layer metrics.
type tracedRun struct {
	e    *env
	name string
	rec  *recorder
	fs   *countFS
	c    *campaign
	o    *outcome

	firstOp int32 // first replay op; earlier ops are set-up and probes
	fs0     fsSnapshot
}

// fsSnapshot is fsCounts at one instant.
type fsSnapshot struct {
	reads, readBytes, writes, writeBytes, fsyncs, renames, ops, nanos int64
}

func (f *countFS) snapshot() fsSnapshot {
	return fsSnapshot{f.c.reads.Load(), f.c.readBytes.Load(), f.c.writes.Load(), f.c.writeBytes.Load(),
		f.c.fsyncs.Load(), f.c.renames.Load(), f.c.ops(), f.c.nanos.Load()}
}

// startTraced generates C in-process (the simulate layer's span), loads
// what the generator needs from it, runs the trace-layer probes and the
// tracing-overhead probe, and leaves the recorder on for the replay.
func startTraced(e *env, name string) (*tracedRun, error) {
	t := &tracedRun{e: e, name: name, rec: newRecorder(), o: newOutcome()}
	t.fs = &countFS{rec: t.rec}
	t.rec.on.Store(true)

	dir := e.dir("campaign")
	store, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: t.fs})
	if err != nil {
		return nil, err
	}
	// What telcogen builds from its defaults and the benchmark's size flags.
	cfg := simulate.DefaultConfig(e.seed)
	cfg.UEs, cfg.Days, cfg.Shards, cfg.Store = e.shape.ues, e.shape.days, e.shape.shards, store
	var ds *simulate.Dataset
	op := t.rec.beginOp("setup.generate")
	start := time.Now()
	err = t.rec.call("simulate", "simulate.Generate", func() error {
		ds, err = simulate.Generate(cfg)
		return err
	})
	genFor := time.Since(start)
	if err == nil {
		err = ds.Meta().SaveFS(t.fs, dir)
	}
	t.rec.end(op)
	if err != nil {
		return nil, err
	}
	t.rec.on.Store(false)
	if t.c, err = loadCampaign(e.ctx, dir); err != nil {
		return nil, err
	}
	t.o.set("gen_records_per_s", float64(t.c.records)/genFor.Seconds(), "1/s")

	t.rec.on.Store(true)
	if err := t.probeTrace(store); err != nil {
		return nil, err
	}
	if err := t.probeOverhead(); err != nil {
		return nil, err
	}
	t.firstOp = t.rec.op.Load() + 1
	t.fs0 = t.fs.snapshot()
	return t, nil
}

// countCollector is the cheapest collector, so a trace.Scan with it
// measures block decode and iteration alone.
type countCollector struct{ total int64 }

type countShard struct{ n int64 }

func (c *countCollector) NewShardState(day, shard int) trace.ShardState { return &countShard{} }
func (s *countShard) Observe(day int, rec *trace.Record) error          { s.n++; return nil }
func (s *countShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	s.n += int64(cb.Len())
	return nil
}
func (c *countCollector) MergeShard(st trace.ShardState) error {
	c.total += st.(*countShard).n
	return nil
}

// probeTrace times the trace layer on its own: a decode-only scan of C
// (read side) and a column encode of C's first day (write side).
func (t *tracedRun) probeTrace(store trace.Store) error {
	const reps = 3
	var scans, encodes []float64
	for i := 0; i < reps; i++ {
		col := &countCollector{}
		op := t.rec.beginOp("probe.scan")
		start := time.Now()
		err := t.rec.call("trace", "trace.Scan", func() error {
			return trace.Scan(t.e.ctx, store, trace.ScanOptions{}, col)
		})
		scans = append(scans, float64(col.total)/time.Since(start).Seconds())
		t.rec.end(op)
		if err != nil {
			return err
		}
		if col.total != t.c.records {
			return fmt.Errorf("probe scan saw %d records, want %d", col.total, t.c.records)
		}

		day := t.c.days[0]
		op = t.rec.beginOp("probe.encode")
		start = time.Now()
		err = t.rec.call("trace", "WriterV2.WriteColumns", func() error {
			w, err := trace.NewWriterV2(io.Discard, trace.WriterV2Options{})
			if err != nil {
				return err
			}
			defer w.Release()
			if err := w.WriteColumns(day); err != nil {
				return err
			}
			return w.Flush()
		})
		encodes = append(encodes, float64(day.Len())/time.Since(start).Seconds())
		t.rec.end(op)
		if err != nil {
			return err
		}
	}
	t.o.set("scan_records_per_s", median(scans), "1/s")
	t.o.set("encode_records_per_s", median(encodes), "1/s")
	return nil
}

// passResult is one in-process report pass.
type passResult struct {
	digest      string
	wall        time.Duration
	stats       analysis.ScanStats
	experiments time.Duration
}

// reportPass is telcoreport -data C in-process: load the campaign, scan
// it cold, run and render every experiment. With traced false it runs
// on the plain OS filesystem with the recorder off, the untraced side of
// the overhead comparison.
func (t *tracedRun) reportPass(traced bool) (passResult, error) {
	var res passResult
	var fsys faultfs.FS
	if traced {
		fsys = t.fs
	}
	was := t.rec.on.Swap(traced)
	defer t.rec.on.Store(was)

	start := time.Now()
	op := t.rec.beginOp("report.pass")
	defer t.rec.end(op)
	var ds *simulate.Dataset
	err := t.rec.call("simulate", "simulate.LoadOpts", func() (err error) {
		ds, err = simulate.LoadOpts(t.c.dir, trace.FileStoreOptions{FS: fsys})
		return err
	})
	if err != nil {
		return res, err
	}
	a, err := analysis.New(ds)
	if err != nil {
		return res, err
	}
	if err := t.rec.call("analysis", "Analyzer.Scan", func() error {
		_, err := a.Scan(t.e.ctx)
		return err
	}); err != nil {
		return res, err
	}
	h := sha256.New()
	expStart := time.Now()
	if err := t.rec.call("analysis", "analysis.RunAll", func() error {
		return analysis.RunAll(t.e.ctx, a, h)
	}); err != nil {
		return res, err
	}
	res.experiments = time.Since(expStart)
	res.wall = time.Since(start)
	res.stats = a.ScanStats()
	res.digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// probeOverhead alternates untraced and traced report passes; the
// difference of their median wall times is what tracing costs.
func (t *tracedRun) probeOverhead() error {
	if _, err := t.reportPass(false); err != nil { // warm-up, not compared
		return err
	}
	var plain, traced []float64
	for i := 0; i < overheadPairs; i++ {
		for _, on := range []bool{false, true} {
			res, err := t.reportPass(on)
			if err != nil {
				return err
			}
			if on {
				traced = append(traced, res.wall.Seconds())
			} else {
				plain = append(plain, res.wall.Seconds())
			}
		}
	}
	t.o.set("trace_overhead_pct", 100*(median(traced)-median(plain))/median(plain), "%")
	return nil
}

// finish turns the replay's spans and filesystem counts into the
// per-layer metrics, fills in the ones this workload does not exercise,
// and writes the span file.
func (t *tracedRun) finish(records int64) (*outcome, error) {
	t.rec.on.Store(false)
	fs1 := t.fs.snapshot()
	self, wall, ops := t.rec.replayTimes(t.firstOp)
	if ops == 0 {
		return t.o, fmt.Errorf("%s: the traced replay ran no op", t.name)
	}
	perOp := func(v int64) float64 { return float64(v) / float64(ops) }
	o := t.o
	o.set("fs_reads_per_op", perOp(fs1.reads-t.fs0.reads), "count")
	o.set("fs_read_bytes_per_op", perOp(fs1.readBytes-t.fs0.readBytes), "B")
	o.set("fs_writes_per_op", perOp(fs1.writes-t.fs0.writes), "count")
	o.set("fs_write_bytes_per_op", perOp(fs1.writeBytes-t.fs0.writeBytes), "B")
	o.set("fs_fsyncs_per_op", perOp(fs1.fsyncs-t.fs0.fsyncs), "count")
	o.set("fs_renames_per_op", perOp(fs1.renames-t.fs0.renames), "count")
	if calls := fs1.ops - t.fs0.ops; calls > 0 {
		o.set("fs_us_per_call", float64(fs1.nanos-t.fs0.nanos)/1e3/float64(calls), "us")
	}
	if records > 0 {
		o.set("write_amplification", float64(fs1.writeBytes-t.fs0.writeBytes)/float64(rawRecordBytes*records), "ratio")
	}
	var layers time.Duration
	for layer, d := range self {
		o.set("self_ms_"+layer, float64(d)/float64(time.Millisecond)/float64(ops), "ms")
		if layer != "bench" {
			layers += d
		}
	}
	o.set("op_wall_ms", float64(wall)/float64(time.Millisecond)/float64(ops), "ms")
	o.set("layers_share_of_op", float64(layers)/float64(wall), "ratio")
	o.set("traced_ops", float64(ops), "count")
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, 0, m.unit)
		}
	}
	path := filepath.Join(t.e.outDir, "trace."+t.name+".json")
	if err := t.rec.write(path); err != nil {
		return o, err
	}
	t.e.logf("spans written to %s", path)
	return o, nil
}

func tracedReportCold(e *env) (*outcome, error) {
	t, err := startTraced(e, "report.cold")
	if err != nil {
		return nil, err
	}
	var ref string
	var scan, finalize, experiments []float64
	passes := max(int(e.seconds*tracedPassesPerSecond), 1)
	for i := 0; i < passes; i++ {
		t.o.attempted++
		res, err := t.reportPass(true)
		if err != nil {
			return t.o, err
		}
		if ref == "" {
			ref = res.digest
		}
		if res.digest != ref {
			t.o.fail(1, "pass %d: report digest differs from the first pass", i)
		}
		scan = append(scan, float64(res.stats.ScanNanos)/1e9)
		finalize = append(finalize, float64(res.stats.FinalizeNanos)/1e9)
		experiments = append(experiments, res.experiments.Seconds())
	}
	t.o.set("scan_s", median(scan), "s")
	t.o.set("finalize_s", median(finalize), "s")
	t.o.set("experiments_s", median(experiments), "s")
	return t.finish(0)
}

// readReplay is the in-process read path: admission control, then the
// query engine over a pinned view, as telcoserve's /query handler runs
// them; artifact requests touch admission only (they are pre-rendered).
type readReplay struct {
	t     *tracedRun
	store *trace.FileStore
	eng   *query.Engine
	adm   *admission.Controller
	view  *query.View

	hitUS      []float64
	missMS     [numClasses][]float64
	admitNS    []float64
	misses     int64
	m          query.Metrics // summed over misses
	rowsOut    int64
	queryCalls int64
}

func newReadReplay(t *tracedRun, dir string) (*readReplay, error) {
	store, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: t.fs})
	if err != nil {
		return nil, err
	}
	return &readReplay{t: t, store: store, eng: query.New(store), adm: admission.NewController(admission.Config{})}, nil
}

// newView pins the store's current partition set, as a snapshot swap
// does, and purges the result cache with it.
func (r *readReplay) newView() error {
	return r.t.rec.call("query", "query.NewView", func() (err error) {
		r.view, err = query.NewView(r.store)
		r.eng.InvalidateCache()
		return err
	})
}

// do replays one read as one traced op.
func (r *readReplay) do(req request) error {
	rec := r.t.rec
	op := rec.beginOp("read." + classNames[req.class])
	defer rec.end(op)
	class := admission.ClassQuery
	if req.class == classArtifact {
		class = admission.ClassArtifacts
	}
	var release func()
	start := time.Now()
	if err := rec.call("admission", "Controller.Admit", func() (err error) {
		release, err = r.adm.Admit(r.t.e.ctx, class)
		return err
	}); err != nil {
		return err
	}
	admit := time.Since(start)
	defer func() {
		start := time.Now()
		rec.call("admission", "release", func() error { release(); return nil })
		r.admitNS = append(r.admitNS, float64(admit+time.Since(start)))
	}()
	if req.class == classArtifact {
		return nil
	}
	var res *query.Result
	var hit bool
	start = time.Now()
	if err := rec.call("query", "Engine.Query", func() (err error) {
		res, hit, err = r.eng.Query(r.t.e.ctx, r.view, req.params())
		return err
	}); err != nil {
		return err
	}
	took := time.Since(start)
	r.queryCalls++
	if hit {
		r.hitUS = append(r.hitUS, float64(took)/float64(time.Microsecond))
		return nil
	}
	r.missMS[req.class] = append(r.missMS[req.class], float64(took)/float64(time.Millisecond))
	r.misses++
	r.rowsOut += int64(len(res.Rows))
	r.m.PartitionsConsidered += res.Metrics.PartitionsConsidered
	r.m.PartitionsPruned += res.Metrics.PartitionsPruned
	r.m.BlocksDecoded += res.Metrics.BlocksDecoded
	r.m.BytesRead += res.Metrics.BytesRead
	r.m.RowsScanned += res.Metrics.RowsScanned
	return nil
}

// recheck re-runs one in recheckEvery of reqs with NoIndex, outside the
// traced ops; rows and aggregate must match the indexed execution.
func (r *readReplay) recheck(reqs []request) error {
	r.t.rec.on.Store(false)
	for i := 0; i < len(reqs); i += recheckEvery {
		if reqs[i].class == classArtifact {
			continue
		}
		r.t.o.attempted++
		var answers [2][]byte
		for k, noIndex := range []bool{false, true} {
			p := reqs[i].params()
			p.NoIndex = noIndex
			res, _, err := r.eng.Query(r.t.e.ctx, r.view, p)
			if err != nil {
				return err
			}
			if answers[k], err = json.Marshal(struct {
				Rows      []query.Row
				Truncated bool
				Aggregate any
			}{res.Rows, res.Truncated, res.Aggregate}); err != nil {
				return err
			}
		}
		if !bytes.Equal(answers[0], answers[1]) {
			r.t.o.fail(1, "%s: indexed and noindex answers differ", reqs[i].path(false))
		}
	}
	return nil
}

// report sets the query, trace-read and admission metrics.
func (r *readReplay) report() {
	o := r.t.o
	if len(r.hitUS) > 0 {
		o.set("engine_hit_us", median(r.hitUS), "us")
	}
	for class, name := range map[reqClass]string{classPoint: "point", classTAC: "tac", classSlice: "slice"} {
		if len(r.missMS[class]) > 0 {
			o.set("engine_miss_"+name+"_ms", median(r.missMS[class]), "ms")
		}
	}
	if len(r.admitNS) > 0 {
		o.set("admit_ns", median(r.admitNS), "ns")
	}
	if r.queryCalls > 0 {
		o.set("cache_hit_ratio", float64(len(r.hitUS))/float64(r.queryCalls), "ratio")
	}
	if r.misses > 0 {
		o.set("blocks_decoded_per_query", float64(r.m.BlocksDecoded)/float64(r.misses), "count")
		o.set("bytes_read_per_query", float64(r.m.BytesRead)/float64(r.misses), "B")
		o.set("partitions_pruned_ratio", float64(r.m.PartitionsPruned)/float64(max(r.m.PartitionsConsidered, 1)), "ratio")
		o.set("rows_scanned_per_row_returned", float64(r.m.RowsScanned)/float64(max(r.rowsOut, 1)), "ratio")
	}
}

func tracedServeRead(e *env) (*outcome, error) {
	t, err := startTraced(e, "serve.read")
	if err != nil {
		return nil, err
	}
	r, err := newReadReplay(t, t.c.dir)
	if err != nil {
		return nil, err
	}
	t.rec.on.Store(false)
	if err := r.newView(); err != nil {
		return t.o, err
	}
	t.rec.on.Store(true)
	reqs := newReadMix(t.c, artifactIDs(), e.shape.days, e.seed).take(max(int(e.seconds*tracedReadsPerSecond), 1))
	for _, req := range reqs {
		t.o.attempted++
		if err := r.do(req); err != nil {
			t.o.fail(1, "%s: %v", req.path(false), err)
		}
	}
	r.report()
	o, err := t.finish(0)
	if err != nil {
		return o, err
	}
	return o, r.recheck(reqs)
}

// ingestReplay is the in-process write path: ingest.Service receiving the
// feed, each day sealed by its marker and followed by what telcoserve's
// refresh does (reload, checkpoint and resume, Refresh, re-render).
type ingestReplay struct {
	t      *tracedRun
	f      *feed
	dstDir string
	svc    *ingest.Service
	a      *analysis.Analyzer
	seq    uint64

	appendUS, sealMS, refreshMS []float64
	refreshParts                []float64
	walBytes, records           int64
}

func newIngestReplay(t *tracedRun) (*ingestReplay, error) {
	r := &ingestReplay{t: t, f: newFeed(t.c, t.e.seed), dstDir: t.e.dir("live")}
	var err error
	if r.svc, err = ingest.Open(r.dstDir, ingest.Options{FS: t.fs}); err != nil {
		return nil, err
	}
	if err := r.svc.Init(t.c.streamMeta()); err != nil {
		r.svc.Close()
		return nil, err
	}
	return r, nil
}

// append replays one batch as one traced op.
func (r *ingestReplay) append(day, i int) error {
	rec := r.t.rec
	op := rec.beginOp("ingest.batch")
	defer rec.end(op)
	r.seq++
	b := r.f.batch(day, i)
	start := time.Now()
	err := rec.call("ingest", "Service.Append", func() error {
		res, err := r.svc.Append(1, r.seq, b)
		if err == nil && res.Accepted != b.Len() {
			err = fmt.Errorf("accepted %d of %d records", res.Accepted, b.Len())
		}
		return err
	})
	r.appendUS = append(r.appendUS, float64(time.Since(start))/float64(time.Microsecond))
	r.records += int64(b.Len())
	return err
}

// closeDay replays a day's completion marker (the seal) and the refresh
// that makes the day visible, as one traced op; swap, when not nil, is
// the read side's part of the snapshot swap and runs inside the op.
func (r *ingestReplay) closeDay(day int, swap func() error) error {
	rec := r.t.rec
	op := rec.beginOp("ingest.day")
	defer rec.end(op)
	r.walBytes += r.svc.Stats().WALBytes
	start := time.Now()
	if err := rec.call("ingest", "Service.DayComplete", func() error {
		return r.svc.DayComplete(day, r.t.c.meta.DayStats[day])
	}); err != nil {
		return err
	}
	r.sealMS = append(r.sealMS, float64(time.Since(start))/float64(time.Millisecond))

	var ds *simulate.Dataset
	if err := rec.call("simulate", "simulate.LoadOpts", func() (err error) {
		ds, err = simulate.LoadOpts(r.dstDir, trace.FileStoreOptions{FS: r.t.fs})
		return err
	}); err != nil {
		return err
	}
	var a *analysis.Analyzer
	if r.a == nil {
		var err error
		if a, err = analysis.New(ds); err != nil {
			return err
		}
	} else {
		start := time.Now()
		var res *analysis.RefreshResult
		if err := rec.call("analysis", "Checkpoint+Resume+Refresh", func() error {
			var ckpt bytes.Buffer
			err := r.a.Checkpoint(&ckpt)
			if err == nil {
				a, err = analysis.ResumeAnalyzer(ds, &ckpt)
			}
			if err == nil {
				res, err = a.Refresh(r.t.e.ctx)
			}
			return err
		}); err != nil {
			return err
		}
		r.refreshMS = append(r.refreshMS, float64(time.Since(start))/float64(time.Millisecond))
		r.refreshParts = append(r.refreshParts, float64(res.PartitionsScanned))
		if res.PartitionsScanned != r.t.e.shape.shards || res.FullRescan {
			r.t.o.fail(1, "day %d: refresh scanned %d partitions (full rescan %v), want %d",
				day, res.PartitionsScanned, res.FullRescan, r.t.e.shape.shards)
		}
	}
	r.a = a
	if err := rec.call("analysis", "render", func() error { return render(r.t.e.ctx, a) }); err != nil || swap == nil {
		return err
	}
	return swap()
}

// render does what telcoserve does to publish a snapshot: warm the shared
// scan state, then run and render every experiment. As in the daemon, an
// experiment that cannot run on the days landed so far (home detection on
// a one-day window) is not an error.
func render(ctx context.Context, a *analysis.Analyzer) error {
	if _, err := a.Scan(ctx); err != nil {
		return err
	}
	for _, exp := range analysis.Experiments() {
		art, err := exp.Run(ctx, a)
		if err != nil {
			continue
		}
		if err := art.Render(io.Discard); err != nil {
			return err
		}
	}
	return nil
}

func (r *ingestReplay) report() {
	o := r.t.o
	o.set("append_us_per_batch", median(r.appendUS), "us")
	o.set("seal_ms_per_day", median(r.sealMS), "ms")
	o.set("wal_bytes_per_record", float64(r.walBytes)/float64(max(r.records, 1)), "B")
	if len(r.refreshMS) > 0 {
		o.set("refresh_ms", median(r.refreshMS), "ms")
		o.set("refresh_partitions", median(r.refreshParts), "count")
	}
}

func tracedServeIngest(e *env) (*outcome, error) {
	t, err := startTraced(e, "serve.ingest")
	if err != nil {
		return nil, err
	}
	r, err := newIngestReplay(t)
	if err != nil {
		return nil, err
	}
	defer r.svc.Close()
	days := r.f.daysWithin(0, ingestRate, e.legSeconds(1))
	for day := 0; day < days; day++ {
		for i := 0; i < r.f.batches(day); i++ {
			t.o.attempted++
			if err := r.append(day, i); err != nil {
				return t.o, fmt.Errorf("day %d batch %d: %w", day, i, err)
			}
		}
		t.o.attempted++
		if err := r.closeDay(day, nil); err != nil {
			return t.o, fmt.Errorf("closing day %d: %w", day, err)
		}
	}
	r.report()
	o, err := t.finish(r.records)
	if err != nil {
		return o, err
	}
	checkFingerprints(o, t.c, r.dstDir, days)
	return o, nil
}

func tracedServeMixed(e *env) (*outcome, error) {
	t, err := startTraced(e, "serve.mixed")
	if err != nil {
		return nil, err
	}
	w, err := newIngestReplay(t)
	if err != nil {
		return nil, err
	}
	defer w.svc.Close()
	backfill := e.shape.days / 2
	// Back-fill is set-up: replayed with the recorder off.
	t.rec.on.Store(false)
	for day := 0; day < backfill; day++ {
		for i := 0; i < w.f.batches(day); i++ {
			if err := w.append(day, i); err != nil {
				return t.o, fmt.Errorf("back-fill day %d: %w", day, err)
			}
		}
		if err := w.closeDay(day, nil); err != nil {
			return t.o, fmt.Errorf("back-fill day %d: %w", day, err)
		}
	}
	rd, err := newReadReplay(t, w.dstDir)
	if err == nil {
		err = rd.newView()
	}
	if err != nil {
		return t.o, err
	}
	// Only the timed half counts towards the ingest metrics.
	*w = ingestReplay{t: t, f: w.f, dstDir: w.dstDir, svc: w.svc, a: w.a, seq: w.seq}
	t.fs0 = t.fs.snapshot()
	t.rec.on.Store(true)

	rate := ingestRate / 2
	days := w.f.daysWithin(backfill, rate, e.legSeconds(1))
	// Reads per batch, from the two frozen rates.
	readsPerBatch := (readRate / 2) / (rate / ingestBatch)
	mix := newReadMix(t.c, artifactIDs(), backfill, e.seed)
	var reqs []request
	owed := 0.0
	for day := backfill; day < backfill+days; day++ {
		for i := 0; i < w.f.batches(day); i++ {
			t.o.attempted++
			if err := w.append(day, i); err != nil {
				return t.o, fmt.Errorf("day %d batch %d: %w", day, i, err)
			}
			for owed += readsPerBatch; owed >= 1; owed-- {
				req := mix.next()
				reqs = append(reqs, req)
				t.o.attempted++
				if err := rd.do(req); err != nil {
					t.o.fail(1, "%s: %v", req.path(false), err)
				}
			}
		}
		t.o.attempted++
		if err := w.closeDay(day, rd.newView); err != nil {
			return t.o, fmt.Errorf("closing day %d: %w", day, err)
		}
	}
	w.report()
	rd.report()
	o, err := t.finish(w.records)
	if err != nil {
		return o, err
	}
	if err := rd.recheck(reqs); err != nil {
		return o, err
	}
	checkFingerprints(o, t.c, w.dstDir, backfill+days)
	return o, nil
}
