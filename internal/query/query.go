// Package query serves ad-hoc slices of a handover trace store: a
// single subscriber's records, a tracking-area code, a sector, a time
// window, or any conjunction of them, plus small per-UE aggregates
// (handover counts, ping-pong bounces).
//
// The engine answers without scanning whole days by pruning in three
// stages, each cheaper than the next would be:
//
//  1. partition zone maps — the MANIFEST's per-partition [MinTS, MaxTS]
//     extents drop partitions outside the window, and UE-hash sharding
//     drops the shards a UE cannot live in;
//  2. partition bloom filters — the UE/TAC/sector filters of the
//     partition's index footer drop partitions that definitely lack
//     the key;
//  3. block summaries — the footer's per-block time extents and
//     UE/TAC blooms turn into a block allow-list pushed down to the
//     stream reader (SetBlockFilter), so excluded blocks are never decoded.
//
// The surviving partitions are then decoded in parallel by trace.Scan's
// workers and their matches merged in canonical order, so a result is
// the same whatever the schedule.
//
// Every stage is conservative: a footer that cannot be read or does not
// decode only widens the set of blocks decoded, never narrows the
// result. Exact predicates re-check every decoded row, so indexed and
// index-absent executions return byte-identical results.
//
// Queries run against an immutable View (the partition set at one
// manifest generation — partitions are write-once, so a pinned view is
// a consistent snapshot even while new days land), and results are
// memoized in a small LRU keyed on (normalized query, view generation).
package query

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"telcolens/internal/analysis"
	"telcolens/internal/trace"
)

// DefaultLimit is the row cap applied when Params.Limit is 0.
const DefaultLimit = 1000

// MaxLimit bounds the rows a single query may return.
const MaxLimit = 100000

// Params is one query: a conjunction of optional predicates. Nil/zero
// fields match everything.
type Params struct {
	// UE restricts to one subscriber.
	UE *trace.UEID
	// TAC restricts to one device type-allocation code.
	TAC *uint32
	// Sector restricts to records with the sector as source or target.
	Sector *uint32
	// From/To restrict to From <= Timestamp <= To (Unix milliseconds,
	// inclusive). Zero means unbounded on that side — the study starts
	// in 2024, so 0 is never a real timestamp.
	From, To int64
	// Limit caps the rows returned (0 = DefaultLimit, max MaxLimit).
	// When the cap is hit the result is marked Truncated.
	Limit int
	// Aggregate additionally computes a per-slice summary (handover
	// counts, outcome and HO-type split, and — for single-UE queries —
	// ping-pong bounces per standard window). Aggregation always scans
	// the full slice even after the row cap is hit.
	Aggregate bool
	// NoIndex disables index-based pruning (stage 2 and 3), forcing the
	// scan-fallback path. Results are identical; the flag exists for
	// cross-checking and benchmarks.
	NoIndex bool
}

// ErrBadParams wraps every error Params validation returns: the
// request itself is wrong (telcoserve answers 400), not the engine.
var ErrBadParams = errors.New("query: bad parameters")

// normalize resolves defaults and validates the window.
func (p Params) normalize() (Params, error) {
	if p.From != 0 && p.To != 0 && p.From > p.To {
		return p, fmt.Errorf("%w: from %d after to %d", ErrBadParams, p.From, p.To)
	}
	if p.Limit < 0 {
		return p, fmt.Errorf("%w: negative limit %d", ErrBadParams, p.Limit)
	}
	if p.Limit == 0 {
		p.Limit = DefaultLimit
	}
	if p.Limit > MaxLimit {
		p.Limit = MaxLimit
	}
	return p, nil
}

// CacheKey renders the normalized parameters as a canonical string:
// two queries with the same key return the same result against the
// same view generation.
func (p Params) CacheKey() string {
	key := make([]byte, 0, 64)
	if p.UE != nil {
		key = append(key, "ue="...)
		key = strconv.AppendUint(key, uint64(*p.UE), 10)
	}
	if p.TAC != nil {
		key = append(key, "&tac="...)
		key = strconv.AppendUint(key, uint64(*p.TAC), 10)
	}
	if p.Sector != nil {
		key = append(key, "&sector="...)
		key = strconv.AppendUint(key, uint64(*p.Sector), 10)
	}
	key = append(key, "&from="...)
	key = strconv.AppendInt(key, p.From, 10)
	key = append(key, "&to="...)
	key = strconv.AppendInt(key, p.To, 10)
	key = append(key, "&limit="...)
	key = strconv.AppendInt(key, int64(p.Limit), 10)
	if p.Aggregate {
		key = append(key, "&agg"...)
	}
	if p.NoIndex {
		key = append(key, "&noindex"...)
	}
	return string(key)
}

// matches is the exact row predicate every decoded record is checked
// against, independent of any index pruning.
func (p *Params) matches(ts int64, ue trace.UEID, tac uint32, src, dst uint32) bool {
	if p.From != 0 && ts < p.From {
		return false
	}
	if p.To != 0 && ts > p.To {
		return false
	}
	if p.UE != nil && ue != *p.UE {
		return false
	}
	if p.TAC != nil && tac != *p.TAC {
		return false
	}
	if p.Sector != nil && src != *p.Sector && dst != *p.Sector {
		return false
	}
	return true
}

// Row is one matched record, shaped for JSON/CSV output.
type Row struct {
	Timestamp  int64   `json:"ts"`
	UE         uint32  `json:"ue"`
	TAC        uint32  `json:"tac"`
	Source     uint32  `json:"source"`
	Target     uint32  `json:"target"`
	SourceRAT  string  `json:"source_rat"`
	TargetRAT  string  `json:"target_rat"`
	Result     string  `json:"result"`
	Cause      uint16  `json:"cause,omitempty"`
	DurationMs float32 `json:"duration_ms"`
}

// rowFrom shapes one record.
func rowFrom(rec *trace.Record) Row {
	return Row{
		Timestamp:  rec.Timestamp,
		UE:         uint32(rec.UE),
		TAC:        uint32(rec.TAC),
		Source:     uint32(rec.Source),
		Target:     uint32(rec.Target),
		SourceRAT:  rec.SourceRAT.String(),
		TargetRAT:  rec.TargetRAT.String(),
		Result:     rec.Result.String(),
		Cause:      uint16(rec.Cause),
		DurationMs: rec.DurationMs,
	}
}

// Metrics reports what one query execution touched. BlocksPruned
// counts blocks excluded without decoding — by the time range, the
// block allow-list, or a whole-partition index prune; BlocksDecoded
// counts blocks whose payload was read. The two are the query layer's
// efficiency contract: a point query should prune nearly everything.
//
// PartitionsScanned counts the partitions opened and PartitionsPruned
// the rest, so the two always add up to PartitionsConsidered. The block,
// byte and row counters sum what the opened partitions read. A query
// that reads every surviving partition to its end — every query that
// does not truncate, and every aggregate query — counts the same on
// every run. A truncated non-aggregate query stops its scan once the
// merge passes the limit; it counts, besides every partition up to the
// one that hit the limit, whatever the workers had already read of
// later partitions, in full or in part, and those it never opened as
// pruned. Its counters then depend on the schedule, between the serial
// read that stops at the limit and the full read of every survivor.
type Metrics struct {
	PartitionsConsidered int64 `json:"partitions_considered"`
	PartitionsPruned     int64 `json:"partitions_pruned"`
	PartitionsScanned    int64 `json:"partitions_scanned"`
	BlocksPruned         int64 `json:"blocks_pruned"`
	BlocksDecoded        int64 `json:"blocks_decoded"`
	BytesRead            int64 `json:"bytes_read"`
	RowsScanned          int64 `json:"rows_scanned"`
}

// Result is one query's answer.
type Result struct {
	// Gen is the view generation the query ran against.
	Gen uint64 `json:"gen"`
	// Rows are the matched records in canonical (day, shard, storage)
	// order, capped at the limit.
	Rows []Row `json:"rows"`
	// Truncated reports that the row cap was hit before the slice was
	// exhausted.
	Truncated bool `json:"truncated,omitempty"`
	// Aggregate is the slice summary when Params.Aggregate was set.
	Aggregate *analysis.UESliceAggregate `json:"aggregate,omitempty"`
	// Metrics reports what the execution touched. Cached results carry
	// the metrics of the execution that produced them.
	Metrics Metrics `json:"metrics"`
}

// csvHeader is the column order WriteCSV emits.
var csvHeader = []string{
	"ts", "ue", "tac", "source", "target",
	"source_rat", "target_rat", "result", "cause", "duration_ms",
}

// WriteCSV renders the result's rows as CSV with a header line.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	rec := make([]string, len(csvHeader))
	for i := range r.Rows {
		row := &r.Rows[i]
		rec[0] = strconv.FormatInt(row.Timestamp, 10)
		rec[1] = strconv.FormatUint(uint64(row.UE), 10)
		rec[2] = strconv.FormatUint(uint64(row.TAC), 10)
		rec[3] = strconv.FormatUint(uint64(row.Source), 10)
		rec[4] = strconv.FormatUint(uint64(row.Target), 10)
		rec[5] = row.SourceRAT
		rec[6] = row.TargetRAT
		rec[7] = row.Result
		rec[8] = strconv.FormatUint(uint64(row.Cause), 10)
		rec[9] = strconv.FormatFloat(float64(row.DurationMs), 'g', -1, 32)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// rowJSONBytes over-estimates one indented row for AppendJSON's single
// up-front allocation; a typical row renders in about 230 bytes.
const rowJSONBytes = 256

// AppendJSON appends the result to b as indented JSON and returns the
// extended buffer. The bytes are exactly what a json.Encoder with
// SetIndent("", " ") writes for r, trailing newline included: rows are
// rendered by hand, the small aggregate and metrics objects through
// json.MarshalIndent. A NaN or infinite duration fails with
// *json.UnsupportedValueError, as it does in encoding/json.
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	b = slices.Grow(b, 512+len(r.Rows)*rowJSONBytes)
	b = append(b, "{\n \"gen\": "...)
	b = strconv.AppendUint(b, r.Gen, 10)
	b = append(b, ",\n \"rows\": "...)
	switch {
	case r.Rows == nil:
		b = append(b, "null"...)
	case len(r.Rows) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = r.Rows[i].appendJSON(b); err != nil {
				return nil, err
			}
		}
		b = append(b, "\n ]"...)
	}
	if r.Truncated {
		b = append(b, ",\n \"truncated\": true"...)
	}
	if r.Aggregate != nil {
		agg, err := json.MarshalIndent(r.Aggregate, " ", " ")
		if err != nil {
			return nil, err
		}
		b = append(b, ",\n \"aggregate\": "...)
		b = append(b, agg...)
	}
	met, err := json.MarshalIndent(&r.Metrics, " ", " ")
	if err != nil {
		return nil, err
	}
	b = append(b, ",\n \"metrics\": "...)
	b = append(b, met...)
	return append(b, "\n}\n"...), nil
}

// appendJSON appends the row as an element of AppendJSON's rows array.
func (row *Row) appendJSON(b []byte) ([]byte, error) {
	b = append(b, "\n  {\n   \"ts\": "...)
	b = strconv.AppendInt(b, row.Timestamp, 10)
	b = append(b, ",\n   \"ue\": "...)
	b = strconv.AppendUint(b, uint64(row.UE), 10)
	b = append(b, ",\n   \"tac\": "...)
	b = strconv.AppendUint(b, uint64(row.TAC), 10)
	b = append(b, ",\n   \"source\": "...)
	b = strconv.AppendUint(b, uint64(row.Source), 10)
	b = append(b, ",\n   \"target\": "...)
	b = strconv.AppendUint(b, uint64(row.Target), 10)
	b = append(b, ",\n   \"source_rat\": "...)
	b = appendJSONString(b, row.SourceRAT)
	b = append(b, ",\n   \"target_rat\": "...)
	b = appendJSONString(b, row.TargetRAT)
	b = append(b, ",\n   \"result\": "...)
	b = appendJSONString(b, row.Result)
	if row.Cause != 0 {
		b = append(b, ",\n   \"cause\": "...)
		b = strconv.AppendUint(b, uint64(row.Cause), 10)
	}
	b = append(b, ",\n   \"duration_ms\": "...)
	b, err := appendJSONFloat32(b, row.DurationMs)
	if err != nil {
		return nil, err
	}
	return append(b, "\n  }"...), nil
}

// appendJSONFloat32 appends f as encoding/json renders a float32: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up with a
// one-digit negative exponent unpadded (1e-07 becomes 1e-7).
func appendJSONFloat32(b []byte, f float32) ([]byte, error) {
	f64 := float64(f)
	if math.IsInf(f64, 0) || math.IsNaN(f64) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f64, 'g', -1, 32)}
	}
	format := byte('f')
	if abs := float32(math.Abs(f64)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f64, format, -1, 32)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONString appends s as a quoted JSON string escaped exactly as
// encoding/json escapes with HTML escaping on (its default): '"', '\\',
// control bytes, '<', '>' and '&', invalid UTF-8 as U+FFFD, and the
// JavaScript line terminators U+2028 and U+2029.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// View pins the partition set of one manifest generation. Partitions
// are write-once, so a view stays internally consistent while new days
// land; queries against it see exactly the generation's data.
//
// The view also pins each partition's index footer the first time a
// query needs it, so later queries on the view neither re-read nor
// re-decode it. A decoded index and a footer that does not decode are
// settled for the view's lifetime (the second as "scan"); a failed
// read is not, and the next query retries the load. Nothing carries
// over to a new view: it reloads lazily.
type View struct {
	// Gen is the manifest generation the view was built from.
	Gen uint64
	// Partitions lists the view's partitions in canonical order. Zone
	// pruning uses each entry's MinTS/MaxTS/Records.
	Partitions []trace.PartitionInfo

	// shardsOf caches, per day, the shard modulus when the day's shard
	// set is exactly {0..k-1} — the layout ShardOf writes — so a UE
	// query can drop the day's other shards with zero false negatives.
	shardsOf map[int]int
	// indexes holds one slot per Partitions entry: nil until a query
	// settles the partition's index, then the decoded footer or
	// noIndex. Hits take no lock.
	indexes []atomic.Pointer[trace.PartitionIndex]
}

// noIndex marks a settled slot whose partition's footer does not decode.
var noIndex = new(trace.PartitionIndex)

// partitionIndex returns partition i's index through src, loading and
// pinning it on first use; nil means scan the partition. Concurrent
// first uses may both load; they decode the same write-once file, so
// either result may win the slot.
func (v *View) partitionIndex(i int, src IndexSource) *trace.PartitionIndex {
	if i < len(v.indexes) { // a View not built by NewView pins nothing
		if idx := v.indexes[i].Load(); idx != nil {
			if idx == noIndex {
				return nil
			}
			return idx
		}
	}
	idx, err := src.PartitionIndex(v.Partitions[i])
	if err != nil {
		if !errors.Is(err, trace.ErrIndexCorrupt) {
			return nil // transient: scan this time, retry next query
		}
		idx = noIndex
	}
	if i < len(v.indexes) {
		v.indexes[i].Store(idx)
	}
	if idx == noIndex {
		return nil
	}
	return idx
}

// NewView snapshots the store's current manifest: its partitions with
// their zone statistics, and its generation.
func NewView(s trace.Store) (*View, error) {
	m, err := s.Manifest()
	if err != nil {
		return nil, err
	}
	v := &View{Gen: m.Gen, Partitions: m.Partitions}
	v.indexes = make([]atomic.Pointer[trace.PartitionIndex], len(v.Partitions))
	v.shardsOf = make(map[int]int)
	byDay := make(map[int][]int)
	for i := range v.Partitions {
		byDay[v.Partitions[i].Day] = append(byDay[v.Partitions[i].Day], v.Partitions[i].Shard)
	}
	for day, shards := range byDay {
		contiguous := true
		for i, s := range shards { // shard lists inherit canonical order
			if s != i {
				contiguous = false
				break
			}
		}
		if contiguous {
			v.shardsOf[day] = len(shards)
		}
	}
	return v, nil
}

// IndexSource loads the index footer of a MANIFEST entry's partition;
// *trace.FileStore implements it. ErrIndexCorrupt means "scan". The
// engine loads each partition's index at most once per View (see View);
// any other error counts as transient and is retried by the view's next
// query.
type IndexSource interface {
	PartitionIndex(pi trace.PartitionInfo) (*trace.PartitionIndex, error)
}

// Engine executes queries over one store, with index pruning when the
// store can read partition index footers, and with an LRU result cache
// keyed on (normalized query, view generation). A query prunes on its calling
// goroutine and decodes the surviving partitions on trace.Scan's
// workers, up to GOMAXPROCS of them per query.
type Engine struct {
	store trace.Store
	idx   IndexSource
	cache *lruCache
}

// New returns an engine over s with the default cache size.
func New(s trace.Store) *Engine {
	e := &Engine{store: s, cache: newLRUCache(defaultCacheEntries, defaultCacheRows)}
	if is, ok := s.(IndexSource); ok {
		e.idx = is
	}
	return e
}

// InvalidateCache drops every cached result. telcoserve calls it when
// a refresh swaps in a new snapshot; entries keyed on older generations
// would otherwise linger until evicted.
func (e *Engine) InvalidateCache() { e.cache.purge() }

// CacheStats reports the result cache's hit/miss counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// Query executes p against the pinned view. The second return reports
// a cache hit. The returned Result is shared with the cache and must
// not be mutated.
func (e *Engine) Query(ctx context.Context, v *View, p Params) (*Result, bool, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, false, err
	}
	key := strconv.FormatUint(v.Gen, 10) + "|" + p.CacheKey()
	if r := e.cache.get(key); r != nil {
		return r, true, nil
	}
	r, err := e.exec(ctx, v, p)
	if err != nil {
		return nil, false, err
	}
	e.cache.put(key, r)
	return r, false, nil
}

// Cached peeks the result cache without executing: the answer if this
// exact query is memoized for the view's generation, else nil. The
// degraded serving mode uses it to answer what it can from cache while
// shedding everything that would need a scan.
func (e *Engine) Cached(v *View, p Params) *Result {
	p, err := p.normalize()
	if err != nil {
		return nil
	}
	return e.cache.get(strconv.FormatUint(v.Gen, 10) + "|" + p.CacheKey())
}

// exec prunes the view's partitions through stages 1a–3, serially and
// without opening any, then scans the survivors through trace.Scan and
// folds their matches in canonical order. A non-aggregate query's merge
// stops all claims at its first match past the limit, so it reads what
// the serial partition loop reads plus the partitions other workers
// had in flight (none on one worker). As in any Scan the first failing
// read fails the query, so it can fail on one of those partitions.
func (e *Engine) exec(ctx context.Context, v *View, p Params) (*Result, error) {
	res := &Result{Gen: v.Gen, Rows: []Row{}}
	m := &res.Metrics
	m.PartitionsConsidered = int64(len(v.Partitions))

	from, to := p.From, p.To
	if from == 0 {
		from = math.MinInt64
	}
	if to == 0 {
		to = math.MaxInt64
	}

	// The survivors in canonical order, each with its stage 3 block
	// allow-list (nil: decode every block).
	var parts []trace.Partition
	var allows [][]bool
	for i := range v.Partitions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pi := &v.Partitions[i]
		// Stage 1a: zone-map prune on the manifest's time extents.
		if pi.Records > 0 && (pi.MaxTS < from || pi.MinTS > to) {
			m.PartitionsPruned++
			continue
		}
		// Stage 1b: shard prune — a UE lives in exactly one shard of a
		// {0..k-1}-sharded day, with no false negatives.
		if p.UE != nil {
			if k, ok := v.shardsOf[pi.Day]; ok && k > 1 && trace.ShardOf(*p.UE, k) != pi.Shard {
				m.PartitionsPruned++
				continue
			}
		}
		// Stages 2 and 3: index prune, when the footer decodes.
		var allow []bool
		if !p.NoIndex && e.idx != nil {
			if idx := v.partitionIndex(i, e.idx); idx != nil {
				if (p.UE != nil && !idx.MayContainUE(*p.UE)) ||
					(p.TAC != nil && !idx.MayContainTAC(*p.TAC)) ||
					(p.Sector != nil && !idx.MayContainSector(*p.Sector)) {
					m.PartitionsPruned++
					m.BlocksPruned += int64(len(idx.Blocks))
					continue
				}
				if len(idx.Blocks) > 0 {
					allow = make([]bool, len(idx.Blocks))
					any := false
					for b := range idx.Blocks {
						bs := &idx.Blocks[b]
						ok := bs.MaxTS >= from && bs.MinTS <= to
						if ok && p.UE != nil {
							ok = bs.UEs.MayContain(uint32(*p.UE))
						}
						if ok && p.TAC != nil {
							ok = bs.TACs.MayContain(*p.TAC)
						}
						allow[b] = ok
						any = any || ok
					}
					if !any {
						m.PartitionsPruned++
						m.BlocksPruned += int64(len(idx.Blocks))
						continue
					}
				}
			}
		}
		parts = append(parts, trace.Partition{Day: pi.Day, Shard: pi.Shard})
		allows = append(allows, allow)
	}

	c := &collector{p: &p, res: res}
	if p.Aggregate {
		c.tracker = analysis.NewUESliceTracker()
	} else {
		c.rowCap = p.Limit + 1
	}
	if len(parts) > 0 { // a nil ScanOptions.Partitions scans the whole store
		var sm trace.ScanMetrics
		opts := trace.ScanOptions{
			Partitions: parts,
			Metrics:    &sm,
			BlockFilter: func(pt trace.Partition) func(int) bool {
				i := sort.Search(len(parts), func(i int) bool { return !parts[i].Less(pt) })
				if i == len(parts) || parts[i] != pt || allows[i] == nil {
					return nil // no allow-list: decode every block
				}
				keep := allows[i]
				// Ordinals beyond the summary list mean the index is out
				// of step with the stream; decode rather than drop.
				return func(b int) bool { return b >= len(keep) || keep[b] }
			},
		}
		if p.From != 0 || p.To != 0 {
			opts.Range = &trace.TimeRange{MinTS: from, MaxTS: to}
		}
		if err := trace.Scan(ctx, e.store, opts, c); err != nil && !errors.Is(err, errRowCap) {
			return nil, err
		}
		m.PartitionsScanned = sm.Partitions.Load()
		m.PartitionsPruned += int64(len(parts)) - m.PartitionsScanned
		m.BlocksDecoded = sm.BlocksRead.Load()
		m.BlocksPruned += sm.BlocksSkipped.Load() + sm.BlocksFiltered.Load()
		m.BytesRead = sm.BytesRead.Load()
		m.RowsScanned = sm.Records.Load()
	}
	if c.tracker != nil {
		agg := c.tracker.Aggregate()
		if p.UE == nil {
			// Ping-pong bounces are only defined per subscriber; a mixed
			// slice would interleave automata.
			agg.PingPongs = nil
		}
		res.Aggregate = &agg
	}
	return res, nil
}

// errRowCap is what the query collector's merge returns once a
// non-aggregate query has more matches than its limit: it stops the
// scan, and exec maps it to success.
var errRowCap = errors.New("query: row cap reached")

// collector is one query's trace.Collector. Each partition's state
// keeps the rows that pass the exact predicate; the merge, in canonical
// order, feeds them to the aggregate tracker and appends them to the
// result up to the limit.
type collector struct {
	p       *Params
	res     *Result
	tracker *analysis.UESliceTracker
	// rowCap bounds the matches one partition keeps (0: keep all, for
	// the aggregate). Limit+1 keeps Truncated exact: one match past the
	// limit is enough to know there is more.
	rowCap int
}

// partMatches is one partition's state: its matching rows in storage
// order.
type partMatches struct {
	c    *collector
	rows trace.ColumnBatch
	perm []int32
}

func (c *collector) NewShardState(day, shard int) trace.ShardState {
	return &partMatches{c: c}
}

func (s *partMatches) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	s.perm = s.perm[:0]
	for j := range cb.Timestamps {
		if s.c.rowCap > 0 && s.rows.Len()+len(s.perm) >= s.c.rowCap {
			break
		}
		if s.c.p.matches(cb.Timestamps[j], cb.UEs[j], uint32(cb.TACs[j]), uint32(cb.Sources[j]), uint32(cb.Targets[j])) {
			s.perm = append(s.perm, int32(j))
		}
	}
	s.rows.AppendGather(cb, s.perm)
	return nil
}

func (c *collector) MergeShard(st trace.ShardState) error {
	s := st.(*partMatches)
	var rec trace.Record
	for j := 0; j < s.rows.Len(); j++ {
		if c.tracker != nil {
			c.tracker.ObserveRow(&s.rows, j)
		}
		if len(c.res.Rows) < c.p.Limit {
			s.rows.Record(j, &rec)
			c.res.Rows = append(c.res.Rows, rowFrom(&rec))
			continue
		}
		c.res.Truncated = true
		if c.tracker == nil {
			return errRowCap
		}
	}
	return nil
}

// ParseTime parses a query time bound: Unix milliseconds, RFC 3339, or
// a bare "day:N" study-day shorthand resolving to the day's start.
func ParseTime(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	if ms, err := strconv.ParseInt(s, 10, 64); err == nil {
		return ms, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t.UnixMilli(), nil
	}
	var day int
	if _, err := fmt.Sscanf(s, "day:%d", &day); err == nil {
		return trace.DayStart(day).UnixMilli(), nil
	}
	return 0, fmt.Errorf("query: unparseable time %q (want unix millis, RFC 3339, or day:N)", s)
}
