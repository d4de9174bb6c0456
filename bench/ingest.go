package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"telcolens"
	"telcolens/internal/ingest"
	"telcolens/internal/trace"
)

// feed is C re-delivered as a live probe feed: per day, the records in
// stream order, cut into ingestBatch-sized batches.
type feed struct {
	c    *campaign
	days []*trace.ColumnBatch
}

func newFeed(c *campaign, seed uint64) *feed {
	rng := rand.New(rand.NewSource(int64(seed)))
	f := &feed{c: c}
	for _, d := range c.days {
		f.days = append(f.days, streamOrder(d, rng))
	}
	return f
}

func (f *feed) batches(day int) int { return (f.days[day].Len() + ingestBatch - 1) / ingestBatch }

func (f *feed) batch(day, i int) *trace.ColumnBatch {
	lo := i * ingestBatch
	return batchOf(f.days[day], lo, min(lo+ingestBatch, f.days[day].Len()))
}

// daysWithin returns how many whole days from firstDay on fit in d at
// rate records/s (at least one, at most the rest of the campaign).
func (f *feed) daysWithin(firstDay int, rate float64, d time.Duration) int {
	budget := rate * d.Seconds()
	n := 0
	for day := firstDay; day < len(f.days); day++ {
		budget -= float64(f.days[day].Len())
		if budget < 0 && n > 0 {
			break
		}
		n++
	}
	return n
}

// streamClient is one ingest stream. A benchmark send is attempted once:
// a retried batch would hide the refusal it is supposed to count.
func streamClient(e *env, base string, stream uint32) *ingest.Client {
	return &ingest.Client{Base: base, Stream: stream, HTTP: e.hc, MaxAttempts: 1}
}

// visibility is the freshness side of a stream: when each day's
// completion marker was sent and when /healthz first showed the day.
type visibility struct {
	mu      sync.Mutex
	sent    map[int]time.Time
	visible map[int]time.Time
	backlog []int64 // memtable_records, sampled once a second
}

func newVisibility() *visibility {
	return &visibility{sent: map[int]time.Time{}, visible: map[int]time.Time{}}
}

// poll watches /healthz every healthzEvery until ctx ends, recording the
// first time each landed-day count is seen and the ingest backlog once a
// second. It is the generator's one observer connection.
func (v *visibility) poll(ctx context.Context, e *env, base string) {
	seen := 0
	var lastBacklog time.Time
	tick := time.NewTicker(healthzEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		h, err := getHealth(ctx, e.hc, base)
		if err != nil {
			continue // counted by the freshness check: the day never shows
		}
		now := time.Now()
		v.mu.Lock()
		for ; seen < h.Days; seen++ {
			v.visible[seen] = now
		}
		if h.Ingest != nil && now.Sub(lastBacklog) >= time.Second {
			v.backlog = append(v.backlog, h.Ingest.MemtableRecords)
			lastBacklog = now
		}
		v.mu.Unlock()
	}
}

// freshness returns, for days [from, to), the time from the completion
// marker being sent to the day showing on /healthz (seal + incremental
// refresh + snapshot swap), and how many days never showed.
func (v *visibility) freshness(from, to int) (ms []float64, missing int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for day := from; day < to; day++ {
		sent, ok1 := v.sent[day]
		vis, ok2 := v.visible[day]
		if !ok1 || !ok2 {
			missing++
			continue
		}
		ms = append(ms, float64(vis.Sub(sent))/float64(time.Millisecond))
	}
	return ms, missing
}

// streamDays sends days [from, to) of the feed on one stream, each day
// closed with its completion marker on the same connection.
//
// With rate > 0 it is an open loop: batch k of the whole stream is due at
// start + k*ingestBatch/rate, day boundaries included, so time spent
// sealing a day is charged to the batches queued behind it.
//
// With rate 0 (set-up back-fill) batches go back to back, and d must be
// given: each day is waited for on /healthz before the next is sent.
// telcoserve reads the landed-day count before the manifest generation
// it then marks as served, so a day sealed while the previous refresh is
// still running can stay invisible until the next seal — or for good if
// it was the last. A paced stream never seals that fast; an unpaced
// back-fill does, so it takes one day at a time.
func streamDays(e *env, cl *ingest.Client, f *feed, from, to int, rate float64, v *visibility, d *daemon) (*loopResult, error) {
	total := &loopResult{}
	interval := time.Duration(0)
	if rate > 0 {
		interval = perSecond(rate / ingestBatch)
	}
	start := time.Now()
	sentBatches := 0
	for day := from; day < to; day++ {
		n := f.batches(day)
		res := openLoop(e.ctx, start.Add(time.Duration(sentBatches)*interval), n, interval, 1, func(_, i int) bool {
			_, err := cl.Send(e.ctx, f.batch(day, i))
			return err == nil
		})
		sentBatches += n
		total.lat = append(total.lat, res.lat...)
		total.late = append(total.late, res.late...)
		total.ok = append(total.ok, res.ok...)
		v.mu.Lock()
		v.sent[day] = time.Now()
		v.mu.Unlock()
		if err := cl.DayDone(e.ctx, day, f.c.meta.DayStats[day]); err != nil {
			return total, fmt.Errorf("closing day %d: %w", day, err)
		}
		if rate == 0 {
			if err := waitVisible(e, d, day+1); err != nil {
				return total, err
			}
		}
	}
	total.elapsed = time.Since(start)
	return total, nil
}

// waitVisible blocks until /healthz shows days landed days.
func waitVisible(e *env, d *daemon, days int) error {
	_, err := d.waitHealth(e.ctx, e.hc, time.Minute, func(h *health) bool { return h.Days >= days })
	return err
}

// checkStreamed verifies the streamed campaign against C after the timed
// part: every landed partition's MANIFEST fingerprint equals C's
// (streamed ≡ batch), and — when the whole campaign landed — the served
// table1 equals the one computed from C.
func checkStreamed(e *env, o *outcome, c *campaign, d *daemon, dstDir string, days int) {
	if _, err := streamClient(e, d.base, 99).Flush(e.ctx, false); err != nil {
		o.fail(0, "/ingest/flush: %v", err)
	}
	checkFingerprints(o, c, dstDir, days)
	if days < len(c.days) {
		return
	}
	o.attempted++
	ds, err := telcolens.Load(c.dir)
	if err != nil {
		o.fail(1, "loading C for the table1 reference: %v", err)
		return
	}
	a, err := telcolens.NewAnalyzer(ds)
	if err != nil {
		o.fail(1, "table1 reference: %v", err)
		return
	}
	var ref bytes.Buffer
	if err := telcolens.RunExperiment(e.ctx, "table1", a, &ref); err != nil {
		o.fail(1, "table1 reference: %v", err)
		return
	}
	got, _, err := httpGet(e.ctx, e.hc, d.base+"/artifacts/table1")
	if err != nil {
		o.fail(1, "%v", err)
		return
	}
	if !bytes.Equal(got, ref.Bytes()) {
		o.fail(1, "/artifacts/table1 of the streamed campaign differs from C's")
	}
}

// checkFingerprints compares the streamed store's MANIFEST with C's for
// the first days days: same partitions, same record counts, same content
// fingerprints (streamed ≡ batch).
func checkFingerprints(o *outcome, c *campaign, dstDir string, days int) {
	store, err := trace.NewFileStore(dstDir)
	if err != nil {
		o.fail(0, "opening streamed store: %v", err)
		return
	}
	m, err := store.Manifest()
	if err != nil || m == nil {
		o.fail(0, "streamed store has no usable MANIFEST (%v)", err)
		return
	}
	want := 0
	for _, pi := range c.manifest.Partitions {
		if pi.Day >= days {
			continue
		}
		want++
		o.attempted++
		got, ok := m.Lookup(pi.Partition())
		if !ok || got.Fingerprint != pi.Fingerprint || got.Records != pi.Records {
			o.fail(1, "day %d shard %d: streamed partition differs from the batch one (found %v, fingerprint %x vs %x)",
				pi.Day, pi.Shard, ok, got.Fingerprint, pi.Fingerprint)
		}
	}
	if len(m.Partitions) != want {
		o.fail(0, "streamed MANIFEST lists %d partitions, want %d", len(m.Partitions), want)
	}
}

// checkBacklog fails the run when the unsealed backlog kept growing: at
// a sustainable rate it never holds more than the day being streamed
// plus the one being sealed.
func checkBacklog(o *outcome, v *visibility, f *feed) {
	var maxDay int64
	for _, d := range f.days {
		maxDay = max(maxDay, int64(d.Len()))
	}
	var peak int64
	for _, b := range v.backlog {
		peak = max(peak, b)
	}
	o.note("ingest_backlog_peak", float64(peak), "count")
	if peak > 2*maxDay {
		o.fail(0, "ingest backlog grew to %d records (largest day: %d)", peak, maxDay)
	}
}

type ingestState struct {
	c      *campaign
	f      *feed
	d      *daemon
	dstDir string
	cl     *ingest.Client
}

func (s *ingestState) teardown() {
	s.d.stop()
	os.RemoveAll(s.dstDir)
	os.RemoveAll(s.c.dir)
}

// setupIngest generates C, loads it as a feed, and brings up
// telcoserve -ingest on an empty directory initialised with C's
// descriptor; backfill days are then streamed unpaced and waited for.
func setupIngest(e *env, backfill int) (*ingestState, error) {
	c, err := e.freshCampaign()
	if err != nil {
		return nil, err
	}
	s := &ingestState{c: c, f: newFeed(c, e.seed), dstDir: e.dir("live")}
	if s.d, err = startDaemon(e.bin("telcoserve"), s.dstDir, e.dir("telcoserve")+".log", true); err != nil {
		return nil, err
	}
	fail := func(err error) (*ingestState, error) {
		s.d.stop()
		return nil, err
	}
	if _, err := s.d.waitHealth(e.ctx, e.hc, time.Minute, func(*health) bool { return true }); err != nil {
		return fail(err)
	}
	s.cl = streamClient(e, s.d.base, 1)
	if err := s.cl.Init(e.ctx, c.streamMeta()); err != nil {
		return fail(err)
	}
	if backfill > 0 {
		res, err := streamDays(e, s.cl, s.f, 0, backfill, 0, newVisibility(), s.d)
		if err == nil && res.failures() > 0 {
			err = fmt.Errorf("%d back-fill batches were refused", res.failures())
		}
		if err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// runStream is the timed part shared by serve.ingest and serve.mixed:
// stream days [from, to) at rate while the observer polls /healthz; then
// wait for the last day to show and verify what landed. reads, when not
// nil, runs beside the stream and is waited for.
func runStream(e *env, o *outcome, s *ingestState, from, to int, rate float64, reads func()) (acks *loopResult, fresh []float64, daemonCPU time.Duration, rss float64, err error) {
	v := newVisibility()
	pollCtx, stopPoll := context.WithCancel(e.ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v.poll(pollCtx, e, s.d.base)
	}()
	if reads != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads()
		}()
	}
	stopRSS := s.d.sampleRSS()
	cpu0, cpuErr := s.d.cpu()
	acks, err = streamDays(e, s.cl, s.f, from, to, rate, v, s.d)
	if err == nil {
		err = waitVisible(e, s.d, to)
	}
	if err == nil {
		// Let the observer see the last day too before it is stopped.
		time.Sleep(2 * healthzEvery)
	}
	stopPoll()
	wg.Wait()
	rss = median(stopRSS())
	if err != nil {
		return acks, nil, 0, 0, fmt.Errorf("%w\n%s", err, s.d.logTail())
	}
	cpu1, err := s.d.cpu()
	if err != nil || cpuErr != nil {
		return acks, nil, 0, 0, fmt.Errorf("reading daemon CPU time: %v %v", cpuErr, err)
	}
	fresh, missing := v.freshness(from, to)
	o.attempted += int64(len(acks.lat)) + int64(to-from)
	o.failed += acks.failures() + missing
	if missing > 0 {
		o.fail(0, "%d of %d days never showed on /healthz", missing, to-from)
	}
	checkBacklog(o, v, s.f)
	checkStreamed(e, o, s.c, s.d, s.dstDir, to)
	return acks, fresh, cpu1 - cpu0, rss, nil
}

// runServeIngest is the probe feed: telcoserve -ingest on an empty
// directory receives C's days in order, open loop at ingestRate on one
// stream, each day closed by its marker; one observer polls /healthz.
func runServeIngest(e *env) (*outcome, error) {
	st, setupS, err := timeSetups(e, func() (*ingestState, error) { return setupIngest(e, 0) }, (*ingestState).teardown)
	if err != nil {
		return nil, err
	}
	defer st.teardown()

	o := newOutcome()
	days := st.f.daysWithin(0, ingestRate, e.legSeconds(1))
	acks, fresh, cpu, rss, err := runStream(e, o, st, 0, days, ingestRate, nil)
	if err != nil {
		return o, err
	}
	peak := st.d.stop()
	stored, err := storedBytes(st.dstDir)
	if err != nil {
		return o, err
	}
	var records int64
	for _, d := range st.f.days[:days] {
		records += int64(d.Len())
	}
	lat := millis(acks.okLatencies())
	if len(lat) == 0 || len(fresh) == 0 {
		return o, fmt.Errorf("serve.ingest: nothing was acknowledged\n%s", st.d.logTail())
	}
	tail := tails["serve.ingest"]
	o.set("setup_s", setupS, "s")
	o.set("op_p50_ms", median(lat), "ms")
	o.set("op_tail_ms", windowedTail(lat, tail.windows, tail.pct), "ms")
	o.set("second_p50_ms", median(fresh), "ms")
	o.set("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(len(acks.lat)), "ms")
	o.set("rss_mb", rss, "MB")
	o.note("peak_rss_mb", peak, "MB")
	o.set("stored_bytes_per_record", float64(stored)/float64(records), "B")
	o.timing("ingest_ack", lat)
	o.timing("freshness", fresh)
	o.note("ingest_rate", ingestRate, "1/s")
	o.note("ingest_days", float64(days), "count")
	o.note("ingest_records", float64(records), "count")
	noteLateness(o, "ingest", acks)
	return o, nil
}

// runServeMixed is reads beside writes: after back-filling the first
// half of C, the second half streams at half of ingestRate on one stream
// while one connection runs the read mix open loop at half of readRate.
func runServeMixed(e *env) (*outcome, error) {
	backfill := e.shape.days / 2
	st, setupS, err := timeSetups(e, func() (*ingestState, error) { return setupIngest(e, backfill) }, (*ingestState).teardown)
	if err != nil {
		return nil, err
	}
	defer st.teardown()

	o := newOutcome()
	rate := ingestRate / 2
	days := st.f.daysWithin(backfill, rate, e.legSeconds(1))
	var records int64
	for _, d := range st.f.days[backfill : backfill+days] {
		records += int64(d.Len())
	}
	// Reads run for as long as the stream is scheduled to.
	readFor := time.Duration(float64(records) / rate * float64(time.Second))
	nReads := int(readFor.Seconds() * readRate / 2)
	mix := newReadMix(st.c, artifactIDs(), backfill, e.seed)
	rd := newReader(e, st.d.base, mix.take(nReads), 1)
	var reads *loopResult
	interval := perSecond(readRate / 2)
	acks, fresh, cpu, rss, err := runStream(e, o, st, backfill, backfill+days, rate, func() {
		reads = openLoop(e.ctx, time.Now(), nReads, interval, 1, rd.do)
	})
	if err != nil {
		return o, err
	}
	o.attempted += int64(len(reads.lat))
	o.failed += reads.failures()
	checked, differed := rd.recheck(e.ctx, nReads)
	o.attempted += checked
	o.failed += differed
	o.problems = append(o.problems, rd.problems...)
	noteServerStats(e, st.d, o)
	peak := st.d.stop()
	stored, err := storedBytes(st.dstDir)
	if err != nil {
		return o, err
	}
	lat := millis(reads.okLatencies())
	if len(lat) == 0 || len(fresh) == 0 {
		return o, fmt.Errorf("serve.mixed: nothing was served\n%s", st.d.logTail())
	}
	tail := tails["serve.mixed"]
	o.set("setup_s", setupS, "s")
	o.set("op_p50_ms", median(lat), "ms")
	o.set("op_tail_ms", windowedTail(lat, tail.windows, tail.pct), "ms")
	o.set("second_p50_ms", median(fresh), "ms")
	o.set("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(len(reads.lat)+len(acks.lat)), "ms")
	o.set("rss_mb", rss, "MB")
	o.note("peak_rss_mb", peak, "MB")
	o.set("stored_bytes_per_record", float64(stored)/float64(st.c.records), "B")
	o.timing("read", lat)
	o.timing("ingest_ack", millis(acks.okLatencies()))
	o.timing("freshness", fresh)
	o.note("read_rate", readRate/2, "1/s")
	o.note("ingest_rate", rate, "1/s")
	o.note("ingest_days", float64(days), "count")
	noteLateness(o, "read", reads)
	noteLateness(o, "ingest", acks)
	return o, nil
}
