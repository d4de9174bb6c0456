package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"telcolens/internal/admission"
	"telcolens/internal/ingest"
)

// A query killed by its context maps to the distinct 503 JSON body,
// still carries X-Manifest-Gen, and leaves nothing in the result cache
// — the next identical query recomputes.
func TestQueryDeadlineMapsTo503(t *testing.T) {
	s := newQueryServer(t)
	s.adm = admission.NewController(admission.Config{})

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/query?ue=3&noindex=1", nil).WithContext(ctx)
	s.handleQuery(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired query: status %d (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Manifest-Gen") == "" {
		t.Fatal("aborted query dropped X-Manifest-Gen")
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("503 body is not JSON: %v (%s)", err, rec.Body.String())
	}
	if body["error"] != "query aborted" {
		t.Fatalf("503 body = %v", body)
	}

	// The aborted execution must not have been cached as a partial
	// result: the same query fresh is a miss, then computes fully.
	rec = get(t, s, "/query?ue=3&noindex=1")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("post-abort query: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}

	// An unparseable or negative timeout is the client's error.
	if rec = get(t, s, "/query?ue=3&timeout=-5"); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative timeout: status %d", rec.Code)
	}
}

// During a declared degraded window /query serves cache-only: memoized
// answers still flow (marked), everything else sheds with 429 +
// Retry-After, artifacts shed too, ingest does not, and /healthz
// reports the window.
func TestOverloadShedsAndHealthz(t *testing.T) {
	s := newQueryServer(t)
	s.adm = admission.NewController(admission.Config{
		QuerySlots: 1, QueryQueue: -1,
		OverloadThreshold: 2, OverloadWindow: 10 * time.Second,
		OverloadCooldown: time.Hour,
	})

	// Warm the cache while healthy.
	if rec := get(t, s, "/query?ue=3"); rec.Code != http.StatusOK {
		t.Fatalf("warmup query: %d", rec.Code)
	}

	// Trip the detector: saturate the single query slot and reject twice.
	release, err := s.adm.Admit(context.Background(), admission.ClassQuery)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.adm.Admit(context.Background(), admission.ClassQuery); err == nil {
			t.Fatal("over-capacity admit succeeded")
		}
	}
	release()
	if !s.adm.Overloaded() {
		t.Fatal("detector did not trip")
	}

	// Cached answer: still served, declared degraded.
	rec := get(t, s, "/query?ue=3")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Degraded") != "cache-only" {
		t.Fatalf("cached query during overload: status %d, X-Degraded %q",
			rec.Code, rec.Header().Get("X-Degraded"))
	}
	// Uncached answer: shed, typed, with a comeback time and the
	// generation header intact.
	rec = get(t, s, "/query?ue=4")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("uncached query during overload: status %d (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" || rec.Header().Get("X-Manifest-Gen") == "" {
		t.Fatalf("shed response headers = %v", rec.Header())
	}
	var shed map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &shed); err != nil || shed["error"] != "overloaded" {
		t.Fatalf("shed body = %s (%v)", rec.Body.String(), err)
	}

	// Artifacts shed through the admission middleware; ingest would not
	// (priority ingest > query > artifacts), asserted in the admission
	// package's controller tests.
	routes := s.routes()
	arec := httptest.NewRecorder()
	routes.ServeHTTP(arec, httptest.NewRequest(http.MethodGet, "/artifacts", nil))
	if arec.Code != http.StatusTooManyRequests {
		t.Fatalf("artifacts during overload: status %d", arec.Code)
	}

	// /healthz reports the degraded window.
	hrec := httptest.NewRecorder()
	routes.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health map[string]any
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "degraded" {
		t.Fatalf("healthz status = %v during overload", health["status"])
	}
	ov, ok := health["overload"].(map[string]any)
	if !ok || ov["degraded"] != true || ov["until"] == nil {
		t.Fatalf("healthz overload section = %v", health["overload"])
	}

	// The admission counters feed the /stats "admission" section: the
	// shed above must be booked against the query class.
	classes, ok := s.adm.Stats()["classes"].([]admission.LimiterStats)
	if !ok || len(classes) != 3 {
		t.Fatalf("admission classes = %v", s.adm.Stats()["classes"])
	}
	var querySheds int64
	for _, c := range classes {
		if c.Class == "query" {
			querySheds = c.Shed
		}
	}
	if querySheds == 0 {
		t.Fatal("query shed counter did not move")
	}
}

// Slow and vanishing clients must not leak handler goroutines: a
// slowloris /ingest body dies at the read timeout, an abandoned /query
// connection unwinds when the response write fails, and the goroutine
// count settles back to baseline.
func TestNoGoroutineLeakSlowClients(t *testing.T) {
	s := newQueryServer(t)
	s.adm = admission.NewController(admission.Config{})
	svc, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s.ing = svc

	srv := newHTTPServer("", s.routes())
	// The production read/write deadlines bound slow clients; shrink
	// them so the test observes the unwind in milliseconds.
	srv.ReadTimeout = 300 * time.Millisecond
	srv.WriteTimeout = 500 * time.Millisecond
	srv.IdleTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// Let the server goroutines settle before taking the baseline.
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	// Slowloris ingest bodies: declare a big payload, send one byte,
	// stall. The server must cut each at the read deadline.
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: 1048576\r\n\r\nx",
			ingest.ContentTypeBinary)
	}
	// Abandoned queries: send a full request, vanish without reading.
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET /query?ue=%d&noindex=1&agg=1 HTTP/1.1\r\nHost: x\r\n\r\n", i%5)
		conn.Close()
	}

	// The goroutine count must return to (near) baseline once the
	// deadlines fire; poll with retries, bounded well above the
	// deadlines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the count
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > baseline %d after slow clients\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// The shed body is well-formed JSON a client can machine-read; the
// queue-full shape mirrors the overload shape.
func TestWriteShedShape(t *testing.T) {
	rec := httptest.NewRecorder()
	writeShed(rec, "queue_full", 3)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "3" {
		t.Fatalf("status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if !strings.Contains(rec.Body.String(), `"queue_full"`) {
		t.Fatalf("body %s", rec.Body.String())
	}
}
