package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"telcolens/internal/admission"
	"telcolens/internal/query"
	"telcolens/internal/trace"
)

// The ad-hoc query endpoint: GET /query serves per-UE / per-TAC /
// per-sector record slices and small aggregates straight from the
// partition files, pruned by the MANIFEST zone maps and the partitions'
// index footers (see internal/query). The partitions that survive
// pruning are decoded in parallel on trace.Scan's workers — up to
// GOMAXPROCS per query, whatever -parallel says — and merged in
// canonical order. Queries run against the query view pinned in the
// current snapshot — the same atomically swapped state the artifact
// handlers serve — so a query never mixes generations, and results are
// memoized per (query, manifest gen).
//
// Parameters:
//
//	ue, tac, sector   numeric equality predicates (conjunctive)
//	from, to          unix millis, RFC 3339, or day:N (inclusive window)
//	day               shorthand for one whole study day
//	limit             row cap (default 1000, max 100000)
//	agg               also compute the slice aggregate (agg=1)
//	noindex           disable index pruning, forcing scan fallback
//	format            json (default) or csv
//	timeout           execution deadline (duration or millis), capped by
//	                  admission.DefaultQueryBudget; expiry is a
//	                  distinct 503 JSON body and nothing is cached
//
// A malformed parameter or an inverted from/to window is a 400. The
// response carries X-Cache (hit/miss) and X-Manifest-Gen headers;
// per-request prune/decode metrics ride in the JSON body and accumulate
// into the "query" section of /stats.

// parseQueryParams decodes the /query URL parameters.
func parseQueryParams(q url.Values) (p query.Params, format string, err error) {
	parseU32 := func(name string) (*uint32, error) {
		s := q.Get(name)
		if s == "" {
			return nil, nil
		}
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", name, s)
		}
		u := uint32(v)
		return &u, nil
	}
	ue, err := parseU32("ue")
	if err != nil {
		return p, "", err
	}
	if ue != nil {
		id := trace.UEID(*ue)
		p.UE = &id
	}
	if p.TAC, err = parseU32("tac"); err != nil {
		return p, "", err
	}
	if p.Sector, err = parseU32("sector"); err != nil {
		return p, "", err
	}
	if p.From, err = query.ParseTime(q.Get("from")); err != nil {
		return p, "", err
	}
	if p.To, err = query.ParseTime(q.Get("to")); err != nil {
		return p, "", err
	}
	if s := q.Get("day"); s != "" {
		day, err := strconv.Atoi(s)
		if err != nil {
			return p, "", fmt.Errorf("bad day %q", s)
		}
		tr := trace.DayRange(day, day)
		p.From, p.To = tr.MinTS, tr.MaxTS
	}
	if s := q.Get("limit"); s != "" {
		if p.Limit, err = strconv.Atoi(s); err != nil || p.Limit < 0 {
			return p, "", fmt.Errorf("bad limit %q", s)
		}
	}
	p.Aggregate = boolParam(q, "agg")
	p.NoIndex = boolParam(q, "noindex")
	format = q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "csv" {
		return p, "", fmt.Errorf("bad format %q (want json or csv)", format)
	}
	return p, format, nil
}

// boolParam treats presence without an explicit falsy value as true
// (?agg, ?agg=1, ?agg=true all enable).
func boolParam(q url.Values, name string) bool {
	if _, ok := q[name]; !ok {
		return false
	}
	switch q.Get(name) {
	case "0", "false", "no":
		return false
	}
	return true
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	cur := s.current(w)
	if cur == nil {
		return
	}
	if cur.qview == nil {
		http.Error(w, "query view unavailable for this snapshot", http.StatusServiceUnavailable)
		return
	}
	p, format, err := parseQueryParams(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	timeout, err := admission.ParseTimeout(r.URL.Query().Get("timeout"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The generation header goes out on every response from here on —
	// shed, deadline, success — so clients always learn which snapshot
	// the daemon was serving, even for answers it refused to compute.
	w.Header().Set("X-Manifest-Gen", strconv.FormatUint(cur.qview.Gen, 10))

	ctx := r.Context()
	if s.adm != nil {
		if s.adm.Overloaded() {
			// Declared degraded mode: answer what the cache already holds,
			// shed everything that would need a scan.
			if res := s.eng.Cached(cur.qview, p); res != nil {
				w.Header().Set("X-Cache", "hit")
				w.Header().Set("X-Degraded", "cache-only")
				s.noteQuery(res.Metrics, 0, true)
				writeQueryResult(w, res, format)
				return
			}
			s.adm.NoteShed(admission.ClassQuery)
			writeShed(w, "overloaded", s.adm.RetryAfter())
			return
		}
		release, err := s.adm.Admit(ctx, admission.ClassQuery)
		if err != nil {
			s.writeAdmissionError(w, err)
			return
		}
		defer release()
		qctx, cancel := s.adm.QueryContext(ctx, timeout)
		defer cancel()
		ctx = qctx
	} else if timeout > 0 {
		qctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		ctx = qctx
	}

	start := time.Now()
	res, hit, err := s.eng.Query(ctx, cur.qview, p)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// A distinct, machine-readable 503: the deadline (or the
			// client) killed the execution mid-scan. The engine never
			// caches an aborted result, so a retry recomputes.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{
				"error":  "query aborted",
				"reason": err.Error(),
			})
			return
		}
		if errors.Is(err, query.ErrBadParams) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.noteQuery(res.Metrics, time.Since(start), hit)
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	writeQueryResult(w, res, format)
}

// writeQueryResult renders one query answer in the requested format.
// JSON goes out in one Write with its Content-Length, rendered by
// Result.AppendJSON into the bytes writeJSON's indenting encoder would
// produce.
func writeQueryResult(w http.ResponseWriter, res *query.Result, format string) {
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := res.WriteCSV(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	body, err := res.AppendJSON(nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// noteQuery folds one served query into the /stats counters.
func (s *server) noteQuery(m query.Metrics, dur time.Duration, hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	if hit {
		s.queryCacheHits++
		return // cached results touched nothing new
	}
	s.qBlocksPruned += m.BlocksPruned
	s.qBlocksDecoded += m.BlocksDecoded
	s.qBytesRead += m.BytesRead
	s.lastQueryMet = m
	s.lastQueryDur = dur
}

// queryStats renders the /stats "query" section: cumulative serving
// counters, the engine's cache stats, and the last uncached query's
// per-request scan metrics.
func (s *server) queryStats() map[string]any {
	s.mu.RLock()
	queries, hits := s.queries, s.queryCacheHits
	pruned, decoded, bytesRead := s.qBlocksPruned, s.qBlocksDecoded, s.qBytesRead
	last, lastDur := s.lastQueryMet, s.lastQueryDur
	s.mu.RUnlock()
	cs := s.eng.CacheStats()
	return map[string]any{
		"served":     queries,
		"cache_hits": hits,
		"cache": map[string]any{
			"hits":    cs.Hits,
			"misses":  cs.Misses,
			"entries": cs.Entries,
		},
		"blocks_pruned":  pruned,
		"blocks_decoded": decoded,
		"bytes_read":     bytesRead,
		"last_query": map[string]any{
			"partitions_considered": last.PartitionsConsidered,
			"partitions_pruned":     last.PartitionsPruned,
			"partitions_scanned":    last.PartitionsScanned,
			"blocks_pruned":         last.BlocksPruned,
			"blocks_decoded":        last.BlocksDecoded,
			"bytes_read":            last.BytesRead,
			"rows_scanned":          last.RowsScanned,
			"duration_seconds":      lastDur.Seconds(),
		},
	}
}
