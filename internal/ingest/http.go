package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// ContentTypeBinary is the wire format of a POST /ingest body, the only
// one it takes: the (stream u32 | seq u64) idempotency key, then the
// batch as one trace block frame, the bytes a WAL batch frame holds (see
// appendBatch).
const ContentTypeBinary = "application/x-telcolens-ingest"

// maxRequestBody bounds one ingest POST (matches the WAL frame bound).
const maxRequestBody = maxFramePayload

// jsonDayDone is the request shape of POST /ingest/day.
type jsonDayDone struct {
	Day int                   `json:"day"`
	Agg simulate.DayAggregate `json:"agg"`
}

// Handler exposes the service over HTTP:
//
//	POST /ingest       record batch (ContentTypeBinary) -> AppendResult
//	POST /ingest/day   day-completion marker + day aggregate
//	POST /ingest/init  campaign descriptor (manifest.json bytes)
//	POST /ingest/flush seal completed head days (?force=1 drains all)
//	GET  /ingest/stats ingest Stats, with the MANIFEST generation
//
// Error mapping: 503 uninitialized, 429 + Retry-After backpressure,
// 409 sealed day or config mismatch, 400 malformed.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleAppend)
	mux.HandleFunc("/ingest/day", s.handleDayDone)
	mux.HandleFunc("/ingest/init", s.handleInit)
	mux.HandleFunc("/ingest/flush", s.handleFlush)
	mux.HandleFunc("/ingest/stats", s.handleStats)
	return mux
}

func writeIngestError(w http.ResponseWriter, err error) {
	var bp *BackpressureError
	var sealed *DaySealedError
	switch {
	case errors.Is(err, ErrNotInitialized):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.As(err, &bp):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.As(err, &sealed), errors.Is(err, ErrConfigMismatch):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading request body: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

func (s *Service) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != ContentTypeBinary {
		http.Error(w, fmt.Sprintf("POST /ingest takes a %s body, not %q", ContentTypeBinary, ct), http.StatusBadRequest)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var cb trace.ColumnBatch
	stream, seq, err := decodeBatch(body, &cb)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.Append(stream, seq, &cb)
	if err != nil {
		if isMappedErr(err) {
			writeIngestError(w, err)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	writeJSON(w, res)
}

// isMappedErr reports whether err carries its own HTTP status mapping in
// writeIngestError; anything else from request processing is a 400.
func isMappedErr(err error) bool {
	var sealed *DaySealedError
	var bp *BackpressureError
	return errors.Is(err, ErrNotInitialized) || errors.As(err, &sealed) || errors.As(err, &bp)
}

func (s *Service) handleDayDone(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var jd jsonDayDone
	if err := json.Unmarshal(body, &jd); err != nil {
		http.Error(w, fmt.Sprintf("decoding day-done: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.DayComplete(jd.Day, jd.Agg); err != nil {
		if isMappedErr(err) {
			writeIngestError(w, err)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	writeJSON(w, map[string]any{"ok": true, "day": jd.Day})
}

func (s *Service) handleInit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	meta, err := simulate.DecodeMeta(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.Init(meta); err != nil {
		writeIngestError(w, err)
		return
	}
	writeJSON(w, map[string]any{"ok": true})
}

func (s *Service) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	force, _ := strconv.ParseBool(r.URL.Query().Get("force"))
	sealed, err := s.Flush(force)
	if err != nil {
		writeIngestError(w, err)
		return
	}
	if sealed == nil {
		sealed = []int{}
	}
	writeJSON(w, map[string]any{"sealed": sealed})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	st.ManifestGen = s.manifestGen()
	writeJSON(w, st)
}
