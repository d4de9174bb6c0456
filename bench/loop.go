package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// loopResult is what a load loop observed. Latencies are kept in
// schedule order (op i at index i for the open loop), so windowed tails
// see time pass; a failed op keeps its slot with ok[i] false.
type loopResult struct {
	lat     []time.Duration // completion minus due time (open) or send time (closed)
	late    []time.Duration // open loop only: actual send minus due time
	ok      []bool
	elapsed time.Duration
}

func (r *loopResult) failures() int64 {
	var n int64
	for _, ok := range r.ok {
		if !ok {
			n++
		}
	}
	return n
}

// okLatencies returns the latencies of the ops that succeeded.
func (r *loopResult) okLatencies() []time.Duration {
	out := make([]time.Duration, 0, len(r.lat))
	for i, d := range r.lat {
		if r.ok[i] {
			out = append(out, d)
		}
	}
	return out
}

// openLoop issues n ops on a fixed schedule: op i is due at
// start + i*interval whatever the system under test does. The ops are
// carried by a fixed set of workers (one connection each); when all are
// stuck behind a slow reply the next op starts late, and because latency
// counts from the due time that wait is charged to the op — the
// schedule itself never stretches. do reports whether the op succeeded.
func openLoop(ctx context.Context, start time.Time, n int, interval time.Duration, workers int, do func(worker, i int) bool) *loopResult {
	res := &loopResult{
		lat:  make([]time.Duration, n),
		late: make([]time.Duration, n),
		ok:   make([]bool, n),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				ok := do(w, i)
				res.lat[i] = time.Since(due)
				res.late[i] = sent.Sub(due)
				res.ok[i] = ok
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// closedLoop runs workers clients back to back for d: each sends its next
// op only when the previous one has completed. Ops are numbered from a
// shared counter so the request sequence stays the seeded one.
func closedLoop(ctx context.Context, d time.Duration, workers int, do func(worker, i int) bool) *loopResult {
	type sample struct {
		lat time.Duration
		ok  bool
	}
	per := make([][]sample, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				sent := time.Now()
				ok := do(w, i)
				per[w] = append(per[w], sample{time.Since(sent), ok})
			}
		}(w)
	}
	wg.Wait()
	res := &loopResult{elapsed: time.Since(start)}
	for _, ss := range per {
		for _, s := range ss {
			res.lat = append(res.lat, s.lat)
			res.ok = append(res.ok, s.ok)
		}
	}
	return res
}

// perSecond is the interval between ops at rate ops per second.
func perSecond(rate float64) time.Duration {
	return time.Duration(float64(time.Second) / rate)
}
