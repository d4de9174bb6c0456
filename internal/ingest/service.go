package ingest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"telcolens/internal/faultfs"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// walDirName is the WAL subdirectory inside the campaign directory. One
// log file per pending (unsealed) study day: a record's day is a pure
// function of its timestamp, so routing frames by day gives the log a
// trivial retention rule — sealing a day deletes its log — instead of
// segment compaction bookkeeping.
const walDirName = "wal"

// DefaultMaxPendingRecords bounds the ingest backlog (WAL + memtable
// rows not yet sealed) before the endpoint starts shedding load with
// 429 + Retry-After.
const DefaultMaxPendingRecords = 2 << 20

// Errors the ingest surface maps to HTTP statuses.
var (
	// ErrNotInitialized: the campaign directory has no descriptor yet;
	// POST /ingest/init (or pre-seeding the directory with telcogen)
	// must establish the campaign before records are accepted.
	ErrNotInitialized = errors.New("ingest: campaign not initialized")
	// ErrConfigMismatch: an init request disagrees with the campaign
	// descriptor already on disk.
	ErrConfigMismatch = errors.New("ingest: campaign config mismatch")
)

// BackpressureError rejects a batch that would push the pending backlog
// over budget. Clients should honor Retry-After and resend the same
// (stream, seq) batch.
type BackpressureError struct {
	Pending int64
	Budget  int64
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("ingest: backlog %d records at budget %d, retry later", e.Pending, e.Budget)
}

// DaySealedError rejects records for a study day that has already been
// sealed into partitions (its WAL — and with it the idempotency state —
// is gone, so a late or replayed batch cannot be safely merged).
type DaySealedError struct{ Day int }

func (e *DaySealedError) Error() string {
	return fmt.Sprintf("ingest: day %d already sealed", e.Day)
}

// Options tunes a Service.
type Options struct {
	// MaxPendingRecords bounds the unsealed backlog (0 = default).
	MaxPendingRecords int64
	// SyncEvery fsyncs the day WAL on every batch append, extending the
	// durability contract from process crashes (kill -9) to machine
	// crashes. Day-completion markers are always synced.
	SyncEvery bool
	// OnSeal, when set, is called (outside the service lock) after each
	// day seals — telcoserve uses it to nudge its refresh loop instead of
	// waiting for the next manifest poll.
	OnSeal func(day int)
	// Now overrides the clock (tests).
	Now func() time.Time
	// FS routes every filesystem operation the service performs (WAL
	// files, campaign descriptor, and the trace store it opens); nil
	// means the real OS. Chaos tests pass a faultfs.Fault here.
	FS faultfs.FS
}

// AppendResult acknowledges one ingested batch.
type AppendResult struct {
	// Accepted rows were appended to the WAL and memtable.
	Accepted int `json:"accepted"`
	// Duplicate rows were dropped because their (stream, seq) was already
	// acknowledged for their day (a client retry after a lost ack).
	Duplicate int `json:"duplicate"`
	// Pending is the post-append unsealed backlog in records.
	Pending int64 `json:"pending"`
}

// Stats snapshots the ingest side for /healthz, /stats and load tests.
type Stats struct {
	Initialized bool `json:"initialized"`
	// SealedDays is the landed-day prefix (the campaign descriptor's day
	// count); PendingDays lists unsealed days holding WAL/memtable state.
	SealedDays  int   `json:"sealed_days"`
	WindowDays  int   `json:"window_days"`
	Shards      int   `json:"shards"`
	PendingDays []int `json:"pending_days"`
	// MemtableRecords is the unsealed backlog; WALBytes its on-disk
	// write-ahead footprint.
	MemtableRecords   int64 `json:"memtable_records"`
	WALBytes          int64 `json:"wal_bytes"`
	MaxPendingRecords int64 `json:"max_pending_records"`
	// IngestLagSec is the age of the oldest unsealed record's arrival —
	// how far sealing trails the stream.
	IngestLagSec float64 `json:"ingest_lag_sec"`
	// ManifestGen is the trace store's MANIFEST generation. Stats leaves
	// it 0: only GET /ingest/stats reads the MANIFEST to fill it.
	ManifestGen uint64 `json:"manifest_gen"`

	IngestedRecords     int64     `json:"ingested_records"`
	DuplicateBatches    int64     `json:"duplicate_batches"`
	BackpressureRejects int64     `json:"backpressure_rejects"`
	Seals               int64     `json:"seals"`
	LastSealDay         int       `json:"last_seal_day"`
	LastSealRecords     int64     `json:"last_seal_records"`
	LastSealAt          time.Time `json:"last_seal_at"`
}

// dayState is one pending (unsealed) study day: its memtable, its WAL
// file, and the per-stream idempotency watermarks.
type dayState struct {
	day      int
	cols     *trace.ColumnBatch
	lastSeq  map[uint32]uint64
	complete bool
	agg      simulate.DayAggregate

	wal      faultfs.File
	walBytes int64

	firstArrival time.Time
}

// Service is the streaming ingest engine for one campaign directory.
// All methods are safe for concurrent use.
type Service struct {
	dir  string
	opts Options
	fs   faultfs.FS

	mu      sync.Mutex
	meta    *simulate.CampaignMeta // nil until initialized
	store   *trace.FileStore
	days    map[int]*dayState
	pending int64 // unsealed rows across all day memtables

	// scratch reused across appends/seals (guarded by mu).
	walBuf   []byte
	subBatch trace.ColumnBatch
	dayBuf   trace.DayScratch

	ingested            int64
	duplicateBatches    int64
	backpressureRejects int64
	seals               int64
	lastSealDay         int
	lastSealRecords     int64
	lastSealAt          time.Time
}

// Open attaches an ingest service to a campaign directory. A directory
// with a campaign descriptor recovers immediately: every pending day's
// WAL is replayed (torn tails truncated), partition debris from a
// crashed seal is removed, and recovered days that were already marked
// complete are re-sealed — idempotently, because the canonical seal sort
// makes sealed bytes a function of the record multiset. A directory
// without a descriptor starts uninitialized and accepts Init.
func Open(dir string, opts Options) (*Service, error) {
	if opts.MaxPendingRecords <= 0 {
		opts.MaxPendingRecords = DefaultMaxPendingRecords
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	fsys := faultfs.Resolve(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: creating campaign dir: %w", err)
	}
	s := &Service{dir: dir, opts: opts, fs: fsys, days: make(map[int]*dayState), lastSealDay: -1}
	meta, err := simulate.LoadMetaFS(fsys, dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return s, nil
		}
		return nil, err
	}
	s.mu.Lock()
	sealed, err := s.attachLocked(meta, false)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.notifySealed(sealed)
	return s, nil
}

// Initialized reports whether the campaign descriptor exists.
func (s *Service) Initialized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta != nil
}

// Init establishes the campaign: the descriptor is validated, written
// atomically as manifest.json, and the store is opened. Initializing an
// already-initialized service is idempotent when the configs agree and
// ErrConfigMismatch when they do not. The descriptor's landed-day count
// must equal its DayStats length (a fresh stream target starts at 0
// days with the full study window declared in WindowDays).
func (s *Service) Init(meta *simulate.CampaignMeta) error {
	s.mu.Lock()
	if s.meta != nil {
		defer s.mu.Unlock()
		if !configsAgree(s.meta, meta) {
			return fmt.Errorf("%w: directory %s already describes seed=%d days=%d ues=%d shards=%d",
				ErrConfigMismatch, s.dir, s.meta.Config.Seed, s.meta.Config.Days, s.meta.Config.UEs, s.meta.Config.Shards)
		}
		return nil
	}
	cp := *meta
	cp.Config.Workers = 0
	cp.DayStats = append([]simulate.DayAggregate(nil), meta.DayStats...)
	sealed, err := s.attachLocked(&cp, true)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.notifySealed(sealed)
	return nil
}

// configsAgree compares the identity-bearing parts of two descriptors.
// Landed-day counts are deliberately excluded: an init retried against a
// directory that has sealed days in the meantime still agrees.
func configsAgree(a, b *simulate.CampaignMeta) bool {
	ac, bc := a.Config, b.Config
	return ac.Seed == bc.Seed && ac.UEs == bc.UEs && ac.Districts == bc.Districts &&
		ac.SitesTarget == bc.SitesTarget && ac.RareBoost == bc.RareBoost &&
		ac.LongTailCauses == bc.LongTailCauses && ac.FullScaleUEs == bc.FullScaleUEs &&
		max(ac.Shards, 1) == max(bc.Shards, 1) &&
		windowOf(ac) == windowOf(bc)
}

// windowOf is the effective world-model window of a config: the declared
// growth target when present, otherwise the landed-day count.
func windowOf(c simulate.Config) int {
	if c.WindowDays > c.Days {
		return c.WindowDays
	}
	return c.Days
}

// attachLocked wires meta + store and recovers pending WAL state,
// returning the days sealed during recovery.
func (s *Service) attachLocked(meta *simulate.CampaignMeta, create bool) ([]int, error) {
	cfg := &meta.Config
	if cfg.Days != len(meta.DayStats) {
		return nil, fmt.Errorf("ingest: descriptor day count %d does not match %d day aggregates", cfg.Days, len(meta.DayStats))
	}
	if cfg.Shards > 256 {
		return nil, fmt.Errorf("ingest: %d shards exceeds the 256-shard cap", cfg.Shards)
	}
	store, err := trace.NewFileStoreOpts(s.dir, trace.FileStoreOptions{FS: s.fs})
	if err != nil {
		return nil, err
	}
	if create {
		if err := meta.SaveFS(s.fs, s.dir); err != nil {
			return nil, err
		}
	}
	s.meta = meta
	s.store = store
	return s.recoverLocked()
}

// recoverLocked rebuilds pending-day state from the WAL directory and
// finishes any interrupted seal.
func (s *Service) recoverLocked() ([]int, error) {
	walDir := filepath.Join(s.dir, walDirName)
	if err := s.fs.MkdirAll(walDir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: creating WAL dir: %w", err)
	}
	entries, err := s.fs.ReadDir(walDir)
	if err != nil {
		return nil, fmt.Errorf("ingest: listing WAL dir: %w", err)
	}
	for _, e := range entries {
		day, ok := parseWALName(e.Name())
		if !ok {
			continue
		}
		path := filepath.Join(walDir, e.Name())
		if day < s.meta.Config.Days {
			// The day sealed (descriptor updated) but the crash hit before
			// the WAL was deleted: finish the deletion.
			if err := s.fs.Remove(path); err != nil {
				return nil, fmt.Errorf("ingest: removing sealed-day WAL: %w", err)
			}
			continue
		}
		ds := s.dayStateLocked(day)
		validSize, err := replayWAL(s.fs, path, func(typ byte, payload []byte) error {
			switch typ {
			case frameBatch:
				stream, seq, err := decodeBatch(payload, &s.subBatch)
				if err != nil {
					return err
				}
				if seq > ds.lastSeq[stream] {
					ds.lastSeq[stream] = seq
				}
				ds.cols.AppendColumns(&s.subBatch)
				s.pending += int64(s.subBatch.Len())
			case frameDayDone:
				var agg simulate.DayAggregate
				if len(payload) < 4 {
					return fmt.Errorf("ingest: short day-done frame")
				}
				if err := json.Unmarshal(payload[4:], &agg); err != nil {
					return fmt.Errorf("ingest: decoding day-done frame: %w", err)
				}
				ds.complete = true
				ds.agg = agg
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		f, size, err := openWALForAppend(s.fs, path, validSize)
		if err != nil {
			return nil, err
		}
		ds.wal = f
		ds.walBytes = size
		ds.firstArrival = s.opts.Now()
	}
	// Partition debris beyond the sealed prefix is the leavings of a
	// crashed seal; remove it so the re-seal starts clean.
	if err := s.removeDebrisLocked(); err != nil {
		return nil, err
	}
	return s.drainSealsLocked()
}

// removeDebrisLocked deletes every partition not covered by the sealed
// prefix: those of the first unsealed day and later.
func (s *Service) removeDebrisLocked() error {
	if _, err := s.store.DiscardFrom(s.meta.Config.Days); err != nil {
		return fmt.Errorf("ingest: removing partition debris: %w", err)
	}
	return nil
}

// dayStateLocked returns (creating if needed) the pending state of day.
func (s *Service) dayStateLocked(day int) *dayState {
	ds := s.days[day]
	if ds == nil {
		ds = &dayState{day: day, cols: new(trace.ColumnBatch), lastSeq: make(map[uint32]uint64)}
		s.days[day] = ds
	}
	return ds
}

// walPath returns the day WAL location.
func (s *Service) walPath(day int) string {
	return filepath.Join(s.dir, walDirName, fmt.Sprintf("day_%03d.wal", day))
}

// parseWALName recovers the study day from a "day_NNN.wal" filename.
func parseWALName(name string) (int, bool) {
	if !strings.HasPrefix(name, "day_") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	mid := name[len("day_") : len(name)-len(".wal")]
	if len(mid) != 3 {
		return 0, false
	}
	day, err := strconv.Atoi(mid)
	if err != nil || day < 0 {
		return 0, false
	}
	return day, true
}

// ensureWALLocked opens the day's WAL lazily.
func (s *Service) ensureWALLocked(ds *dayState) error {
	if ds.wal != nil {
		return nil
	}
	f, size, err := openWALForAppend(s.fs, s.walPath(ds.day), 0)
	if err != nil {
		return err
	}
	ds.wal = f
	ds.walBytes = size
	if s.opts.SyncEvery {
		// The durability contract extends to machine crashes: the new log
		// file's directory entry must be durable before its frames are
		// acknowledged.
		if err := f.Sync(); err != nil {
			return fmt.Errorf("ingest: syncing new WAL: %w", err)
		}
		if err := s.fs.SyncDir(filepath.Join(s.dir, walDirName)); err != nil {
			return fmt.Errorf("ingest: syncing WAL dir: %w", err)
		}
	}
	return nil
}

// appendFrameLocked lands one frame in the day WAL, keeping the log
// self-consistent on partial writes: a failed append truncates back to
// the last intact frame boundary, so a later retry does not append valid
// frames behind a torn one (replay stops at the first tear).
func (s *Service) appendFrameLocked(ds *dayState, typ byte, payload []byte, sync bool) error {
	if err := s.ensureWALLocked(ds); err != nil {
		return err
	}
	n, err := appendFrame(ds.wal, typ, payload)
	if err != nil {
		if terr := ds.wal.Truncate(ds.walBytes); terr == nil {
			_, _ = ds.wal.Seek(ds.walBytes, 0)
		}
		return fmt.Errorf("ingest: appending WAL frame: %w", err)
	}
	ds.walBytes += int64(n)
	if sync || s.opts.SyncEvery {
		if err := ds.wal.Sync(); err != nil {
			return fmt.Errorf("ingest: syncing WAL: %w", err)
		}
	}
	return nil
}

// Append ingests one batch of records. The batch is split by study day,
// deduplicated per (day, stream) against the seq watermark — a retried
// batch whose ack was lost lands exactly once — written to each day's
// WAL, and appended to the day memtables. The acknowledgment (a nil
// error) promises the records are durable to a process crash and will be
// sealed. Batches for already-sealed days are refused (DaySealedError),
// and batches that would push the backlog over budget are shed
// (BackpressureError).
func (s *Service) Append(stream uint32, seq uint64, cb *trace.ColumnBatch) (AppendResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res AppendResult
	if s.meta == nil {
		return res, ErrNotInitialized
	}
	n := cb.Len()
	res.Pending = s.pending
	if n == 0 {
		return res, nil
	}
	// Validate the batch up front so a rejected batch leaves no partial
	// state behind: its size (each day's WAL frame is one block), then
	// every row's day.
	if n > trace.MaxBlockRecords {
		return res, fmt.Errorf("ingest: batch of %d records exceeds the %d a block holds", n, trace.MaxBlockRecords)
	}
	sealedBefore := s.meta.Config.Days
	for _, ts := range cb.Timestamps {
		day := trace.DayOf(ts)
		if day < 0 || day > 999 {
			return res, fmt.Errorf("ingest: record timestamp %d maps to study day %d outside [0, 999]", ts, day)
		}
		if day < sealedBefore {
			return res, &DaySealedError{Day: day}
		}
	}
	if s.pending+int64(n) > s.opts.MaxPendingRecords {
		s.backpressureRejects++
		return res, &BackpressureError{Pending: s.pending, Budget: s.opts.MaxPendingRecords}
	}

	// Group rows by day, preserving arrival order inside each day.
	byDay := map[int][]int32{}
	var dayOrder []int
	for i, ts := range cb.Timestamps {
		day := trace.DayOf(ts)
		if _, ok := byDay[day]; !ok {
			dayOrder = append(dayOrder, day)
		}
		byDay[day] = append(byDay[day], int32(i))
	}
	sort.Ints(dayOrder)
	now := s.opts.Now()
	for _, day := range dayOrder {
		idx := byDay[day]
		ds := s.dayStateLocked(day)
		if seq != 0 && seq <= ds.lastSeq[stream] {
			res.Duplicate += len(idx)
			s.duplicateBatches++
			continue
		}
		sub := &s.subBatch
		sub.Reset()
		sub.AppendGather(cb, idx)
		var err error
		if s.walBuf, err = appendBatch(s.walBuf[:0], stream, seq, sub); err != nil {
			return res, err
		}
		if err := s.appendFrameLocked(ds, frameBatch, s.walBuf, false); err != nil {
			return res, err
		}
		ds.cols.AppendColumns(sub)
		ds.lastSeq[stream] = seq
		if ds.firstArrival.IsZero() {
			ds.firstArrival = now
		}
		s.pending += int64(len(idx))
		s.ingested += int64(len(idx))
		res.Accepted += len(idx)
	}
	res.Pending = s.pending
	return res, nil
}

// DayComplete marks a study day finished, records its generation
// ground-truth aggregate (persisted through the WAL so a crash between
// marker and seal cannot lose it), and seals every completed day at the
// head of the pending sequence. Days seal strictly in order — a
// completion marker for day 5 while day 4 is still open just waits.
// Completing an already-sealed day is an idempotent no-op (a client
// retry after a lost ack).
func (s *Service) DayComplete(day int, agg simulate.DayAggregate) error {
	s.mu.Lock()
	sealed, err := s.dayCompleteLocked(day, agg)
	s.mu.Unlock()
	s.notifySealed(sealed)
	return err
}

func (s *Service) dayCompleteLocked(day int, agg simulate.DayAggregate) ([]int, error) {
	if s.meta == nil {
		return nil, ErrNotInitialized
	}
	if day < 0 || day > 999 {
		return nil, fmt.Errorf("ingest: day %d outside [0, 999]", day)
	}
	if day < s.meta.Config.Days {
		return nil, nil
	}
	ds := s.dayStateLocked(day)
	payload := make([]byte, 4, 256)
	binary.LittleEndian.PutUint32(payload, uint32(day))
	aggJSON, err := json.Marshal(agg)
	if err != nil {
		return nil, fmt.Errorf("ingest: encoding day aggregate: %w", err)
	}
	payload = append(payload, aggJSON...)
	if err := s.appendFrameLocked(ds, frameDayDone, payload, true); err != nil {
		return nil, err
	}
	ds.complete = true
	ds.agg = agg
	if ds.firstArrival.IsZero() {
		ds.firstArrival = s.opts.Now()
	}
	return s.drainSealsLocked()
}

// Flush seals completed days waiting at the head of the pending
// sequence. With force, the lowest pending day is sealed even without a
// completion marker (its aggregate is whatever a marker supplied, or
// zero) — an operator action for draining a stalled stream; late records
// for a force-sealed day are refused like any sealed day's.
func (s *Service) Flush(force bool) ([]int, error) {
	s.mu.Lock()
	sealed, err := s.flushLocked(force)
	s.mu.Unlock()
	s.notifySealed(sealed)
	return sealed, err
}

func (s *Service) flushLocked(force bool) ([]int, error) {
	if s.meta == nil {
		return nil, ErrNotInitialized
	}
	sealed, err := s.drainSealsLocked()
	if err != nil || !force {
		return sealed, err
	}
	// Force: complete everything up to the highest pending day as-is
	// (gap days with no records seal as empty), then drain again.
	high := -1
	for day := range s.days {
		if day > high {
			high = day
		}
	}
	if high < 0 {
		return sealed, nil
	}
	for day := s.meta.Config.Days; day <= high; day++ {
		s.dayStateLocked(day).complete = true
	}
	more, err := s.drainSealsLocked()
	return append(sealed, more...), err
}

// drainSealsLocked seals days from the head of the pending sequence
// while the next expected day is complete.
func (s *Service) drainSealsLocked() ([]int, error) {
	var sealed []int
	for {
		next := s.meta.Config.Days
		ds, ok := s.days[next]
		if !ok || !ds.complete {
			return sealed, nil
		}
		if err := s.sealLocked(ds); err != nil {
			return sealed, err
		}
		sealed = append(sealed, next)
	}
}

// sealLocked turns one completed day's memtable into ordinary (day,
// shard) partitions and commits: partitions first, then the campaign
// descriptor (day count + aggregate), then the WAL deletion. A crash
// anywhere in that sequence recovers idempotently — debris partitions
// are removed and the canonical-order re-seal lands byte-identical
// streams, and a WAL that outlived the descriptor update is simply
// deleted.
func (s *Service) sealLocked(ds *dayState) error {
	if err := s.removeDebrisLocked(); err != nil {
		return err
	}
	// The ordinary FileStore writer, so sealed partitions carry the same
	// index footer batch-generated ones do: streamed days are
	// immediately index-prunable by /query.
	if err := trace.WriteDay(s.store, ds.day, s.meta.Config.Shards, ds.cols, &s.dayBuf); err != nil {
		return err
	}
	s.meta.Config.Days = ds.day + 1
	s.meta.DayStats = append(s.meta.DayStats, ds.agg)
	if err := s.meta.SaveFS(s.fs, s.dir); err != nil {
		// The descriptor is the commit point: without it the seal did not
		// happen. Roll the in-memory copy back so a retry re-runs cleanly.
		s.meta.Config.Days = ds.day
		s.meta.DayStats = s.meta.DayStats[:len(s.meta.DayStats)-1]
		return err
	}
	records := int64(ds.cols.Len())
	if ds.wal != nil {
		ds.wal.Close()
	}
	if err := s.fs.Remove(s.walPath(ds.day)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return fmt.Errorf("ingest: removing sealed WAL: %w", err)
	}
	s.pending -= records
	delete(s.days, ds.day)
	s.seals++
	s.lastSealDay = ds.day
	s.lastSealRecords = records
	s.lastSealAt = s.opts.Now()
	return nil
}

// notifySealed runs the OnSeal hook outside the lock.
func (s *Service) notifySealed(days []int) {
	if s.opts.OnSeal == nil {
		return
	}
	for _, d := range days {
		s.opts.OnSeal(d)
	}
}

// Stats snapshots the service's counters. It reads memory only — no
// file, not even the MANIFEST, so ManifestGen stays 0 — and seals no
// day: it holds the lock every Append takes, so a probe polling it
// must cost the same whatever the study's size.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Initialized:         s.meta != nil,
		MaxPendingRecords:   s.opts.MaxPendingRecords,
		MemtableRecords:     s.pending,
		IngestedRecords:     s.ingested,
		DuplicateBatches:    s.duplicateBatches,
		BackpressureRejects: s.backpressureRejects,
		Seals:               s.seals,
		LastSealDay:         s.lastSealDay,
		LastSealRecords:     s.lastSealRecords,
		LastSealAt:          s.lastSealAt,
	}
	if s.meta == nil {
		return st
	}
	st.SealedDays = s.meta.Config.Days
	st.WindowDays = s.meta.Config.Days
	if s.meta.Config.WindowDays > st.WindowDays {
		st.WindowDays = s.meta.Config.WindowDays
	}
	st.Shards = max(s.meta.Config.Shards, 1)
	var oldest time.Time
	for day, ds := range s.days {
		st.PendingDays = append(st.PendingDays, day)
		st.WALBytes += ds.walBytes
		if !ds.firstArrival.IsZero() && (oldest.IsZero() || ds.firstArrival.Before(oldest)) {
			oldest = ds.firstArrival
		}
	}
	sort.Ints(st.PendingDays)
	if !oldest.IsZero() {
		st.IngestLagSec = s.opts.Now().Sub(oldest).Seconds()
	}
	return st
}

// manifestGen reads the trace store's MANIFEST generation with the lock
// not held (0 before Init or when the MANIFEST is unreadable).
func (s *Service) manifestGen() uint64 {
	s.mu.Lock()
	store := s.store
	s.mu.Unlock()
	if store == nil {
		return 0
	}
	m, err := store.Manifest()
	if err != nil {
		return 0
	}
	return m.Gen
}

// Close releases the open WAL files. Pending state stays on disk and is
// recovered by the next Open.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, ds := range s.days {
		if ds.wal != nil {
			if err := ds.wal.Close(); err != nil && first == nil {
				first = err
			}
			ds.wal = nil
		}
	}
	return first
}
