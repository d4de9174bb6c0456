package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	iofs "io/fs"
	"sort"

	"telcolens/internal/faultfs"
)

// The store manifest makes a partition directory self-describing at the
// storage layer: one MANIFEST file listing every finished partition with
// its record count, time extents and a content fingerprint, plus a
// monotonically increasing generation number bumped on every rewrite.
// It is the store's only partition list: scans, queries and incremental
// consumers (Analyzer.Refresh, cmd/telcoserve) read it instead of the
// directory, and Count answers straight from it.

// ManifestName is the per-store partition index file a FileStore
// maintains next to its partition files. (The campaign-level
// manifest.json written by the simulate package describes the world
// config; this one describes the trace bytes.)
const ManifestName = "MANIFEST"

// PartitionInfo is one manifest entry: a finished partition plus the
// metadata recorded when its writer closed.
type PartitionInfo struct {
	Day   int `json:"day"`
	Shard int `json:"shard"`
	// Records is the number of records in the partition.
	Records int64 `json:"records"`
	// MinTS/MaxTS are the partition's timestamp extents (Unix millis,
	// inclusive); both zero when the partition is empty.
	MinTS int64 `json:"min_ts"`
	MaxTS int64 `json:"max_ts"`
	// Bytes is the stored (on-disk) partition size; the partition's
	// index footer ends at it.
	Bytes int64 `json:"bytes"`
	// Fingerprint hashes the partition's stored content (FNV-1a over the
	// file's bytes, index footer included), so consumers can detect a
	// rewritten partition without reading it.
	Fingerprint uint64 `json:"fingerprint"`
	// Gen is the manifest generation at which this entry was added or
	// last changed.
	Gen uint64 `json:"gen"`
}

// Partition returns the entry's partition key.
func (pi *PartitionInfo) Partition() Partition { return Partition{Day: pi.Day, Shard: pi.Shard} }

// Manifest is a store's partition index: every finished partition in
// canonical (day, shard) order, plus the generation counter.
type Manifest struct {
	// Gen increments every time the manifest is rewritten.
	Gen uint64 `json:"gen"`
	// Partitions lists finished partitions in canonical order.
	Partitions []PartitionInfo `json:"partitions"`
}

// TotalRecords sums the per-partition record counts.
func (m *Manifest) TotalRecords() int64 {
	var n int64
	for i := range m.Partitions {
		n += m.Partitions[i].Records
	}
	return n
}

// Lookup returns the entry for p, or false.
func (m *Manifest) Lookup(p Partition) (PartitionInfo, bool) {
	for i := range m.Partitions {
		if m.Partitions[i].Partition() == p {
			return m.Partitions[i], true
		}
	}
	return PartitionInfo{}, false
}

// ErrNoManifest is the error for a directory that holds partition files
// but no MANIFEST: a campaign written before the store kept one. Such a
// directory is neither read as empty nor backfilled.
var ErrNoManifest = errors.New("trace: partition files without a MANIFEST (written before the store kept one); regenerate the campaign with telcogen")

// upsert folds one freshly closed partition into the manifest: the entry
// replaces any previous one for the same partition, canonical order is
// restored, and the generation advances.
func (m *Manifest) upsert(info PartitionInfo) {
	m.Gen++
	info.Gen = m.Gen
	for i := range m.Partitions {
		if m.Partitions[i].Partition() == info.Partition() {
			m.Partitions[i] = info
			return
		}
	}
	m.Partitions = append(m.Partitions, info)
	sort.Slice(m.Partitions, func(i, j int) bool {
		return m.Partitions[i].Partition().Less(m.Partitions[j].Partition())
	})
}

// loadManifest reads a MANIFEST file; a missing file is (nil, nil).
func loadManifest(fsys faultfs.FS, path string) (*Manifest, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("trace: reading manifest: %w", err)
	}
	return decodeManifest(data)
}

// decodeManifest parses a MANIFEST body and checks what the store
// relies on: entries in strict canonical order (so no duplicates), day
// and shard in [0, 999], non-negative record and byte counts, and
// ordered time extents on every non-empty partition. A MANIFEST that
// fails is an error, never an absent one.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("trace: decoding manifest: %w", err)
	}
	for i := range m.Partitions {
		pi := &m.Partitions[i]
		err := checkPartitionKey(pi.Day, pi.Shard)
		switch {
		case err != nil:
		case i > 0 && !m.Partitions[i-1].Partition().Less(pi.Partition()):
			err = errors.New("out of canonical order or duplicated")
		case pi.Records < 0 || pi.Bytes < 0:
			err = fmt.Errorf("negative size (%d records, %d bytes)", pi.Records, pi.Bytes)
		case pi.Records > 0 && pi.MinTS > pi.MaxTS:
			err = fmt.Errorf("inverted time extents [%d, %d]", pi.MinTS, pi.MaxTS)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: manifest entry %d (day %d shard %d): %w", i, pi.Day, pi.Shard, err)
		}
	}
	return &m, nil
}

// writeManifest persists the manifest with the full atomic-publish
// discipline (stage + fsync + rename + directory fsync, see
// faultfs.WriteFileAtomic): a concurrent reader sees either the
// previous or the new index, never a torn write, and a crash after a
// successful rewrite cannot roll it back. The directory fsync also
// makes any partition files created since the last rewrite durable —
// the MANIFEST rewrite is the store's commit point.
func writeManifest(fsys faultfs.FS, path string, m *Manifest) error {
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	if err := faultfs.WriteFileAtomic(fsys, path, data, 0o644); err != nil {
		return fmt.Errorf("trace: manifest: %w", err)
	}
	return nil
}

// encodeManifest renders a MANIFEST body.
func encodeManifest(m *Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, fmt.Errorf("trace: encoding manifest: %w", err)
	}
	return data, nil
}

// partitionDigest accumulates the metadata a manifest entry needs while a
// partition is being written: record count is supplied by the codec, the
// timestamp extents by the writer wrapper, and the content fingerprint
// plus byte count by hashing the stream as it lands.
type partitionDigest struct {
	records int64
	minTS   int64
	maxTS   int64
	bytes   int64
	hash    uint64
	seenTS  bool
}

func newPartitionDigest() *partitionDigest {
	h := fnv.New64a()
	return &partitionDigest{hash: h.Sum64()}
}

// observeTS folds one record timestamp into the extents.
func (d *partitionDigest) observeTS(ts int64) {
	if !d.seenTS {
		d.minTS, d.maxTS, d.seenTS = ts, ts, true
		return
	}
	if ts < d.minTS {
		d.minTS = ts
	}
	if ts > d.maxTS {
		d.maxTS = ts
	}
}

// observeBytes folds stored stream bytes into the fingerprint (FNV-1a).
func (d *partitionDigest) observeBytes(p []byte) {
	h := d.hash
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	d.hash = h
	d.bytes += int64(len(p))
}

func (d *partitionDigest) info(day, shard int, records int64) PartitionInfo {
	return PartitionInfo{
		Day:         day,
		Shard:       shard,
		Records:     records,
		MinTS:       d.minTS,
		MaxTS:       d.maxTS,
		Bytes:       d.bytes,
		Fingerprint: d.hash,
	}
}
