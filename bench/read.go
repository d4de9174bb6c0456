package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"telcolens"
)

// artifactIDs lists the experiments telcoserve pre-renders, in paper
// order.
func artifactIDs() []string {
	var ids []string
	for _, e := range telcolens.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// reader issues reads of the mix against one daemon and applies the
// per-response checks: 200, and a manifest generation that never goes
// back on a connection.
type reader struct {
	e    *env
	base string
	reqs []request

	mu       sync.Mutex
	problems []string
	lastGen  []uint64 // per worker
}

func newReader(e *env, base string, reqs []request, workers int) *reader {
	return &reader{e: e, base: base, reqs: reqs, lastGen: make([]uint64, workers)}
}

func (r *reader) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// do issues request i (wrapping around the prepared sequence) on worker
// w's connection and reports whether it was served correctly.
func (r *reader) do(w, i int) bool {
	req := r.reqs[i%len(r.reqs)]
	_, hdr, err := httpGet(r.e.ctx, r.e.hc, r.base+req.path(false))
	if err != nil {
		r.problem("%v", err)
		return false
	}
	if req.class == classArtifact {
		return true
	}
	gen, err := strconv.ParseUint(hdr.Get("X-Manifest-Gen"), 10, 64)
	if err != nil {
		r.problem("%s: bad X-Manifest-Gen %q", req.path(false), hdr.Get("X-Manifest-Gen"))
		return false
	}
	if gen < r.lastGen[w] {
		r.problem("%s: generation went back from %d to %d", req.path(false), r.lastGen[w], gen)
		return false
	}
	r.lastGen[w] = gen
	return true
}

// answer reduces a /query response to what must not depend on how it was
// executed: the CSV body, or the JSON rows and aggregate (per-request
// scan metrics legitimately differ between index and scan).
func answer(req request, body []byte) ([]byte, error) {
	if req.class == classSlice {
		return body, nil
	}
	var res struct {
		Gen       uint64          `json:"gen"`
		Rows      json.RawMessage `json:"rows"`
		Truncated bool            `json:"truncated"`
		Aggregate json.RawMessage `json:"aggregate"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// recheck re-issues one in recheckEvery of the first n reads, indexed and
// with noindex=1, outside the timed legs; both must return the same rows.
// It returns how many it compared and how many differed.
func (r *reader) recheck(ctx context.Context, n int) (checked, differed int64) {
	for i := 0; i < min(n, len(r.reqs)); i += recheckEvery {
		req := r.reqs[i]
		if req.class == classArtifact {
			continue
		}
		checked++
		var answers [2][]byte
		for k, noIndex := range []bool{false, true} {
			body, _, err := httpGet(ctx, r.e.hc, r.base+req.path(noIndex))
			if err == nil {
				answers[k], err = answer(req, body)
			}
			if err != nil {
				r.problem("recheck %s: %v", req.path(noIndex), err)
				answers[k] = nil
				break
			}
		}
		if answers[0] == nil || answers[1] == nil || !bytes.Equal(answers[0], answers[1]) {
			differed++
			r.problem("recheck %s: indexed and noindex answers differ", req.path(false))
		}
	}
	return checked, differed
}

// serverStats is the part of GET /stats the generator reports.
type serverStats struct {
	Query struct {
		Served    int64 `json:"served"`
		CacheHits int64 `json:"cache_hits"`
	} `json:"query"`
	Admission struct {
		Classes []struct {
			Rejected int64 `json:"rejected"`
			Shed     int64 `json:"shed"`
		} `json:"classes"`
	} `json:"admission"`
}

// noteServerStats records the daemon's own view of the run: result-cache
// hit share and how much admission control refused.
func noteServerStats(e *env, d *daemon, o *outcome) {
	body, _, err := httpGet(e.ctx, e.hc, d.base+"/stats")
	if err != nil {
		o.fail(0, "fetching /stats: %v", err)
		return
	}
	var st serverStats
	if err := json.Unmarshal(body, &st); err != nil {
		o.fail(0, "decoding /stats: %v", err)
		return
	}
	if st.Query.Served > 0 {
		o.note("server_cache_hit_ratio", float64(st.Query.CacheHits)/float64(st.Query.Served), "ratio")
	}
	var refused int64
	for _, c := range st.Admission.Classes {
		refused += c.Rejected + c.Shed
	}
	o.note("admission_refused", float64(refused), "count")
}

// noteLateness reports how late the generator itself ran: p50 and max of
// actual minus due send time.
func noteLateness(o *outcome, name string, res *loopResult) {
	late := millis(res.late)
	if len(late) == 0 {
		return
	}
	s := sortedCopy(late)
	o.note(name+"_lateness_p50_ms", percentile(s, 50), "ms")
	o.note(name+"_lateness_max_ms", s[len(s)-1], "ms")
}

type readState struct {
	c *campaign
	d *daemon
}

func (s *readState) teardown() {
	s.d.stop()
	os.RemoveAll(s.c.dir)
}

// runServeRead is the NOC drill-down path: telcoserve -data C answering
// the seeded read mix. Leg A is open loop at readRate on nproc
// connections; leg B is closed loop, nproc clients back to back.
func runServeRead(e *env) (*outcome, error) {
	var coldStarts []float64
	st, setupS, err := timeSetups(e, func() (*readState, error) {
		c, err := e.freshCampaign()
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(e.bin("telcoserve"), c.dir, e.dir("telcoserve")+".log", false)
		if err != nil {
			return nil, err
		}
		ready, err := d.waitHealth(e.ctx, e.hc, time.Minute, func(h *health) bool {
			return h.Status == "ok" && h.Days == e.shape.days
		})
		if err != nil {
			d.stop()
			return nil, err
		}
		coldStarts = append(coldStarts, float64(ready.Sub(d.spawned))/float64(time.Millisecond))
		return &readState{c: c, d: d}, nil
	}, (*readState).teardown)
	if err != nil {
		return nil, err
	}
	defer st.teardown()

	o := newOutcome()
	openFor, closedFor := e.legSeconds(openShare), e.legSeconds(1-openShare)
	nOpen := int(openFor.Seconds() * readRate)
	mix := newReadMix(st.c, artifactIDs(), e.shape.days, e.seed)
	// The closed leg takes as many requests as the daemon can serve; draw
	// more than it could so the sequence never wraps onto cached keys.
	reqs := mix.take(nOpen + int(closedFor.Seconds()*20000))
	rd := newReader(e, st.d.base, reqs, e.nproc)

	stopRSS := st.d.sampleRSS()
	cpu0, err := st.d.cpu()
	if err != nil {
		stopRSS()
		return o, err
	}
	interval := perSecond(readRate)
	open := openLoop(e.ctx, time.Now(), nOpen, interval, e.nproc, rd.do)
	closed := closedLoop(e.ctx, closedFor, e.nproc, func(w, i int) bool { return rd.do(w, nOpen+i) })
	rss := median(stopRSS())
	cpu1, err := st.d.cpu()
	if err != nil {
		return o, err
	}
	reads := int64(len(open.lat) + len(closed.lat))
	o.attempted = reads
	o.failed = open.failures() + closed.failures()

	checked, differed := rd.recheck(e.ctx, int(reads))
	o.attempted += checked
	o.failed += differed
	o.problems = append(o.problems, rd.problems...)
	noteServerStats(e, st.d, o)
	peak := st.d.stop()
	stored, err := storedBytes(st.c.dir)
	if err != nil {
		return o, err
	}

	lat := millis(open.okLatencies())
	if len(lat) == 0 {
		return o, fmt.Errorf("serve.read: no read succeeded\n%s", st.d.logTail())
	}
	tail := tails["serve.read"]
	o.set("setup_s", setupS, "s")
	o.set("op_p50_ms", median(lat), "ms")
	o.set("op_tail_ms", windowedTail(lat, tail.windows, tail.pct), "ms")
	o.set("second_p50_ms", median(coldStarts), "ms")
	o.set("cpu_ms_per_op", float64(cpu1-cpu0)/float64(time.Millisecond)/float64(reads), "ms")
	o.set("rss_mb", rss, "MB")
	o.note("peak_rss_mb", peak, "MB")
	o.set("stored_bytes_per_record", float64(stored)/float64(st.c.records), "B")
	o.timing("read", lat)
	o.timing("read_closed", millis(closed.okLatencies()))
	o.note("read_sat_qps", float64(len(closed.lat))/closed.elapsed.Seconds(), "1/s")
	o.note("read_rate", readRate, "1/s")
	noteLateness(o, "read", open)
	return o, nil
}
