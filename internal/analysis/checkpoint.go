package analysis

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// The incremental engine: a warm Analyzer can persist its entire scan
// state (every live collector's encoding, the ping-pong automata among
// them, and the partition coverage) into a checkpoint, be resumed from
// it against the same — possibly grown — campaign, and then Refresh by
// scanning only the partitions the checkpoint does not cover. The
// contract, enforced by TestIncrementalEqualsFull, is that artifacts
// rendered from checkpoint+Refresh state are byte-identical to a cold
// full scan of the same store.

// checkpointMagic brackets every checkpoint stream; the trailing byte is
// the format version.
var checkpointMagic = []byte("TLCKPT\x00\x01")

// errGeneration refuses the calls that advance or persist an analyzer's
// collectors on a generation, which has none.
var errGeneration = fmt.Errorf("analysis: a generation is read-only")

// RefreshResult summarizes what one Refresh did.
type RefreshResult struct {
	// PartitionsScanned is how many partitions were scanned and merged
	// into the warm state (0 when the store was unchanged).
	PartitionsScanned int
	// FullRescan reports that the store changed in a non-append way
	// (partitions rewritten or removed), so the state was rebuilt from
	// scratch instead of merged incrementally.
	FullRescan bool
	// ManifestGen is the store manifest generation the state now covers.
	ManifestGen uint64
	// Days is the study window length after the refresh.
	Days int
}

// Refresh brings the cached scan state up to date with the store:
// partitions appended since the state was computed (detected via the
// store manifest when present) are scanned — only them — and merged
// into the live collectors, after which every cached view reflects the
// full store exactly as a cold scan would. A store that changed in a
// non-append way triggers a full rebuild of the computed units instead.
// A study window grown in place (simulate.GenerateDays) keeps the same
// collectors: their day-indexed state grows as the new days merge.
//
// Refresh must not run concurrently with experiments reading the
// analyzer; they may read a Generation of it instead (the serving daemon
// renders its artifacts from one while its watch loop refreshes). A
// generation itself cannot be refreshed.
func (a *Analyzer) Refresh(ctx context.Context) (*RefreshResult, error) {
	if a.frozen {
		return nil, errGeneration
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.syncEnvLocked()
	res := &RefreshResult{Days: a.env.days}
	if a.have == 0 {
		// Nothing computed yet: drop any pinned coverage so the next
		// Require sees the store's current partitions.
		a.covered = nil
		a.coveredGen = 0
		return res, nil
	}
	cur, gen, err := a.currentCoverageLocked()
	if err != nil {
		return nil, err
	}
	res.ManifestGen = gen
	delta, ok := coverageDelta(a.covered, cur)
	if !ok {
		needs := a.have
		a.resetScanStateLocked()
		a.covered = cur
		a.coveredGen = gen
		res.FullRescan = true
		res.PartitionsScanned = len(cur)
		if _, err := a.requireLocked(ctx, needs); err != nil {
			return nil, err
		}
		return res, nil
	}
	if len(delta) == 0 {
		a.coveredGen = gen
		return res, nil
	}
	if err := a.checkPartitionDaysLocked(delta); err != nil {
		return nil, err
	}
	cols := make([]collector, 0, len(a.cols))
	for n := NeedTypes; n < needSentinel; n <<= 1 {
		if col, ok := a.cols[n]; ok {
			cols = append(cols, col)
		}
	}
	if err := a.scanIntoLocked(ctx, cols, partitionsOf(delta)); err != nil {
		// A failed delta scan may have partially merged into the live
		// collectors; drop everything so the next call rebuilds cleanly.
		a.resetScanStateLocked()
		return nil, err
	}
	a.covered = cur
	a.coveredGen = gen
	a.stateDirty = true
	if err := a.finalizeLocked(); err != nil {
		return nil, err
	}
	res.PartitionsScanned = len(delta)
	return res, nil
}

// Covered reports the number of partitions the cached scan state covers
// and the manifest generation it was synced to.
func (a *Analyzer) Covered() (partitions int, manifestGen uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.covered), a.coveredGen
}

// --- coverage encoding --------------------------------------------------

func encodeCoverage(e *enc, infos []trace.PartitionInfo) {
	e.u32(uint32(len(infos)))
	for i := range infos {
		pi := &infos[i]
		e.u32(uint32(pi.Day))
		e.u32(uint32(pi.Shard))
		e.i64(pi.Records)
		e.i64(pi.MinTS)
		e.i64(pi.MaxTS)
		e.i64(pi.Bytes)
		e.u64(pi.Fingerprint)
		e.u64(pi.Gen)
	}
}

const coverageEntryBytes = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8

func decodeCoverage(d *dec) []trace.PartitionInfo {
	n := d.length(coverageEntryBytes)
	if d.err != nil || n == 0 {
		return nil
	}
	infos := make([]trace.PartitionInfo, n)
	for i := range infos {
		pi := &infos[i]
		pi.Day = int(int32(d.u32()))
		pi.Shard = int(int32(d.u32()))
		pi.Records = d.i64()
		pi.MinTS = d.i64()
		pi.MaxTS = d.i64()
		pi.Bytes = d.i64()
		pi.Fingerprint = d.u64()
		pi.Gen = d.u64()
	}
	return infos
}

// checksum64 hashes the checkpoint body for the integrity check, eight
// bytes at a time (an FNV-style chain over little-endian words — a
// private format, not interchange FNV-1a; checkpoints are fingerprinted
// and verified by this same function only). Word-at-a-time keeps the
// verify cost of multi-megabyte checkpoints out of the refresh path.
func checksum64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 1099511628211
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// readAllSized is io.ReadAll with pre-sized allocation when the reader
// reports its length (bytes.Reader, bytes.Buffer): multi-megabyte
// checkpoints then land in one allocation instead of a growth chain.
func readAllSized(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		buf := bytes.NewBuffer(make([]byte, 0, l.Len()+1))
		if _, err := buf.ReadFrom(r); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return io.ReadAll(r)
}

// Checkpoint serializes the analyzer's entire cached scan state — which
// units are computed, each collector's encoding and the partition
// coverage — so a later process can ResumeAnalyzer from it and Refresh
// instead of rescanning the store.
// Only call it at a quiescent point (no scan in flight). A generation
// holds no collectors and cannot be checkpointed.
func (a *Analyzer) Checkpoint(w io.Writer) error {
	if a.frozen {
		return errGeneration
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.syncEnvLocked()
	e := &enc{b: append([]byte(nil), checkpointMagic...)}
	cfg := a.DS.Config
	e.u64(cfg.Seed)
	e.u32(uint32(cfg.Days))
	e.u32(uint32(cfg.UEs))
	e.u32(uint32(cfg.Shards))
	e.u32(uint32(cfg.Districts))
	e.u32(uint32(cfg.SitesTarget))
	e.f64(cfg.RareBoost)
	e.u32(uint32(cfg.LongTailCauses))
	e.i32(int32(a.winFrom))
	e.i32(int32(a.winTo))
	e.u32(uint32(a.have))
	encodeCoverage(e, a.covered)
	e.u64(a.coveredGen)
	for n := NeedTypes; n < needSentinel; n <<= 1 {
		col, ok := a.cols[n]
		if !ok {
			continue
		}
		at := len(e.b)
		e.u32(0) // the state's length, filled in below
		encodeState(e, n, col)
		binary.LittleEndian.PutUint32(e.b[at:], uint32(len(e.b)-at-4))
	}
	e.u64(checksum64(e.b))
	_, err := w.Write(e.b)
	return err
}

// ResumeAnalyzer reconstructs a warm analyzer from a checkpoint written
// by Checkpoint against the same campaign: each unit's encoding is
// restored into a fresh collector. The dataset's world fingerprint
// (seed, population, deployment, sharding) must match the checkpoint's;
// the study window may have grown (simulate.GenerateDays / telcogen
// -append) — the restored collectors cover the checkpoint's days, and a
// subsequent Refresh merges exactly the new partitions.
// WithWindow options must match the checkpointed analysis window.
func ResumeAnalyzer(ds *simulate.Dataset, r io.Reader, opts ...Option) (*Analyzer, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading checkpoint: %w", err)
	}
	if len(data) < len(checkpointMagic)+8 || string(data[:len(checkpointMagic)]) != string(checkpointMagic) {
		return nil, fmt.Errorf("analysis: not a telcolens checkpoint")
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if got := checksum64(body); got != (&dec{b: tail}).u64() {
		return nil, fmt.Errorf("analysis: checkpoint checksum mismatch")
	}
	a, err := New(ds, opts...)
	if err != nil {
		return nil, err
	}
	d := &dec{b: body[len(checkpointMagic):]}
	cfg := ds.Config
	seed := d.u64()
	days := int(d.u32())
	ues := int(d.u32())
	shards := int(d.u32())
	districts := int(d.u32())
	sites := int(d.u32())
	rareBoost := d.f64()
	longTail := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if seed != cfg.Seed || ues != cfg.UEs || shards != cfg.Shards ||
		districts != cfg.Districts || sites != cfg.SitesTarget ||
		rareBoost != cfg.RareBoost || longTail != cfg.LongTailCauses {
		return nil, fmt.Errorf("analysis: checkpoint campaign fingerprint (seed=%d ues=%d shards=%d districts=%d sites=%d) does not match dataset (seed=%d ues=%d shards=%d districts=%d sites=%d)",
			seed, ues, shards, districts, sites,
			cfg.Seed, cfg.UEs, cfg.Shards, cfg.Districts, cfg.SitesTarget)
	}
	if days > cfg.Days {
		return nil, fmt.Errorf("analysis: checkpoint covers %d study days but dataset has %d", days, cfg.Days)
	}
	winFrom := int(d.i32())
	winTo := int(d.i32())
	if (a.winFrom != -1 || a.winTo != -1) && (a.winFrom != winFrom || a.winTo != winTo) {
		return nil, fmt.Errorf("analysis: checkpoint window [%d, %d] conflicts with requested [%d, %d]; resume without WithWindow",
			winFrom, winTo, a.winFrom, a.winTo)
	}
	if err := checkWindow(winFrom, winTo); err != nil {
		return nil, err
	}
	a.winFrom, a.winTo = winFrom, winTo
	have := Need(d.u32())
	covered := decodeCoverage(d)
	coveredGen := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if have&^NeedAll != 0 {
		return nil, fmt.Errorf("analysis: checkpoint holds unknown units %b", have&^NeedAll)
	}
	a.env = newScanEnv(ds)
	a.cols = make(map[Need]collector)
	for n := NeedTypes; n < needSentinel; n <<= 1 {
		if have&n == 0 {
			continue
		}
		payload := d.take(d.length(1))
		if d.err != nil {
			return nil, d.err
		}
		col := collectorFor(n, a.env)
		if err := restoreState(col, n, payload); err != nil {
			return nil, fmt.Errorf("analysis: restoring %b: %w", n, err)
		}
		a.cols[n] = col
	}
	a.have = have
	a.covered = covered
	a.coveredGen = coveredGen
	a.stateDirty = have != 0
	if len(d.b) != 0 {
		return nil, fmt.Errorf("analysis: %d trailing checkpoint bytes", len(d.b))
	}
	return a, nil
}
