package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"time"

	"telcolens/internal/faultfs"
)

// The scrub/quarantine subsystem: Verify audits manifest ↔ partition
// consistency by re-reading every partition file, Scrub moves what fails
// out of the serving set into quarantine/ so the rest of the campaign
// keeps serving, and LoadQuarantine lets the daemon report the
// excluded days instead of failing whole campaigns. cmd/telcofsck is
// the operator front-end; telcoserve runs the same scrub at startup.

// CorruptionClass buckets what a failed partition read means, so
// operators (and /healthz) can tell bit rot from a half-written file.
type CorruptionClass string

const (
	// CorruptChecksum: the stream bytes no longer hash to the manifest
	// fingerprint — bit rot or an overwrite behind the store's back.
	CorruptChecksum CorruptionClass = "checksum"
	// CorruptTruncated: the file is shorter than the manifest says —
	// a torn write or lost tail.
	CorruptTruncated CorruptionClass = "truncated"
	// CorruptDecode: the codec rejected the stream (bad magic, frame
	// structure, impossible counts).
	CorruptDecode CorruptionClass = "decode"
	// CorruptIO: the file could not be read at all.
	CorruptIO CorruptionClass = "io"
)

// ErrChecksumMismatch is wrapped by read-verification failures
// (FileStoreOptions.VerifyReads and Verify).
var ErrChecksumMismatch = errors.New("trace: stream checksum mismatch")

// CorruptionError reports a partition that failed verification or
// decode, classified (see CorruptionClass).
type CorruptionError struct {
	Day   int
	Shard int
	Class CorruptionClass
	Err   error
}

// Error renders the partition coordinates, class and underlying cause.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("trace: day %d shard %d corrupt (%s): %v", e.Day, e.Shard, e.Class, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CorruptionError) Unwrap() error { return e.Err }

// VerifyIssue is one finding of a store audit.
type VerifyIssue struct {
	Day    int             `json:"day"`
	Shard  int             `json:"shard"`
	Class  CorruptionClass `json:"class"`
	Detail string          `json:"detail"`
}

// String renders the issue the way telcofsck prints it.
func (i VerifyIssue) String() string {
	return fmt.Sprintf("day %d shard %d [%s]: %s", i.Day, i.Shard, i.Class, i.Detail)
}

// VerifyReport is the outcome of a store audit.
type VerifyReport struct {
	// Partitions is how many partition files were checked.
	Partitions int `json:"partitions"`
	// Records is the total record count decoded across clean partitions.
	Records int64 `json:"records"`
	// Issues lists everything that failed, in canonical partition order.
	Issues []VerifyIssue `json:"issues,omitempty"`
	// Missing lists manifest entries whose partition file is gone.
	Missing []Partition `json:"missing,omitempty"`
	// Orphans lists partition files the manifest does not cover.
	Orphans []Partition `json:"orphans,omitempty"`
}

// OK reports whether the store passed clean.
func (r *VerifyReport) OK() bool {
	return len(r.Issues) == 0 && len(r.Missing) == 0
}

// verifyPartitionData audits one partition file against its manifest
// entry (fingerprint and size, which cover the index footer, and record
// count) and the codec.
// A nil entry (an orphan file) runs the structural checks only. Intact
// bytes whose header names a format this package does not read are not
// corruption: that case returns the ErrBadVersion error, not an issue.
func verifyPartitionData(data []byte, pi *PartitionInfo) (int64, *VerifyIssue, error) {
	if pi != nil {
		d := newPartitionDigest()
		d.observeBytes(data)
		if d.bytes != pi.Bytes {
			class := CorruptChecksum
			if d.bytes < pi.Bytes {
				class = CorruptTruncated
			}
			return 0, &VerifyIssue{Day: pi.Day, Shard: pi.Shard, Class: class,
				Detail: fmt.Sprintf("stored %d bytes, manifest records %d", d.bytes, pi.Bytes)}, nil
		}
		if d.hash != pi.Fingerprint {
			return 0, &VerifyIssue{Day: pi.Day, Shard: pi.Shard, Class: CorruptChecksum,
				Detail: fmt.Sprintf("stream hash %016x, manifest fingerprint %016x", d.hash, pi.Fingerprint)}, nil
		}
	}
	r, err := NewReader(bytes.NewReader(data))
	if errors.Is(err, ErrBadVersion) {
		return 0, nil, err
	}
	if err != nil {
		return 0, &VerifyIssue{Class: CorruptDecode, Detail: err.Error()}, nil
	}
	var records int64
	var cb ColumnBatch
	for {
		n, err := r.NextColumns(&cb)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, &VerifyIssue{Class: CorruptDecode, Detail: err.Error()}, nil
		}
		records += int64(n)
	}
	if pi != nil && records != pi.Records {
		return 0, &VerifyIssue{Day: pi.Day, Shard: pi.Shard, Class: CorruptDecode,
			Detail: fmt.Sprintf("decoded %d records, manifest records %d", records, pi.Records)}, nil
	}
	return records, nil, nil
}

// Verify audits every partition file of a FileStore: fingerprints and
// sizes against the MANIFEST (index footers included), a full decode
// pass, and record counts. Files the MANIFEST does not list are
// reported as Orphans (and decoded structurally), entries without a
// file as Missing. It never modifies the store. A directory
// with partition files but no MANIFEST fails with ErrNoManifest. A
// partition whose bytes match the MANIFEST but whose header names a
// stream format this package does not read fails the audit with an
// ErrBadVersion error naming the partition and the format: the data is
// intact, and regenerating the campaign with telcogen makes it readable
// again.
func Verify(ctx context.Context, f *FileStore) (*VerifyReport, error) {
	report := &VerifyReport{}
	m, err := f.Manifest()
	if err != nil {
		return nil, err
	}
	onDisk, err := f.listPartitions()
	if err != nil {
		return nil, err
	}
	present := make(map[Partition]bool, len(onDisk))
	for _, p := range onDisk {
		present[p] = true
	}
	entries := make(map[Partition]*PartitionInfo, len(m.Partitions))
	for i := range m.Partitions {
		pi := &m.Partitions[i]
		p := pi.Partition()
		entries[p] = pi
		if !present[p] {
			report.Missing = append(report.Missing, p)
		}
	}
	for _, p := range onDisk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		report.Partitions++
		pi := entries[p]
		if pi == nil {
			report.Orphans = append(report.Orphans, p)
		}
		data, err := f.fs.ReadFile(f.partitionPath(p.Day, p.Shard))
		if err != nil {
			report.Issues = append(report.Issues, VerifyIssue{
				Day: p.Day, Shard: p.Shard, Class: CorruptIO, Detail: err.Error()})
			continue
		}
		records, issue, err := verifyPartitionData(data, pi)
		if err != nil {
			return nil, fmt.Errorf("trace: day %d shard %d (%s): %w",
				p.Day, p.Shard, filepath.Base(f.partitionPath(p.Day, p.Shard)), err)
		}
		if issue != nil {
			issue.Day, issue.Shard = p.Day, p.Shard
			report.Issues = append(report.Issues, *issue)
			continue
		}
		report.Records += records
	}
	return report, nil
}

// QuarantineDirName is the subdirectory Scrub moves failed partitions
// into, and QuarantineLogName the append-only record of why.
const (
	QuarantineDirName = "quarantine"
	QuarantineLogName = "QUARANTINE.json"
)

// QuarantineRecord is one quarantined partition in the log.
type QuarantineRecord struct {
	File  string          `json:"file"`
	Day   int             `json:"day"`
	Shard int             `json:"shard"`
	Class CorruptionClass `json:"class"`
	Error string          `json:"error"`
	// Time is when the scrub quarantined it (RFC 3339).
	Time string `json:"time"`
}

// LoadQuarantine reads a store's quarantine log; a store that never
// quarantined anything returns (nil, nil).
func LoadQuarantine(fsys faultfs.FS, dir string) ([]QuarantineRecord, error) {
	fsys = faultfs.Resolve(fsys)
	data, err := fsys.ReadFile(filepath.Join(dir, QuarantineDirName, QuarantineLogName))
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []QuarantineRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("trace: decoding quarantine log: %w", err)
	}
	return recs, nil
}

// QuarantinedDays reduces a quarantine log to the distinct affected
// days, ascending.
func QuarantinedDays(recs []QuarantineRecord) []int {
	seen := map[int]bool{}
	for _, r := range recs {
		seen[r.Day] = true
	}
	days := make([]int, 0, len(seen))
	for d := range seen {
		days = append(days, d)
	}
	sort.Ints(days)
	return days
}

// ScrubResult reports what a Scrub changed.
type ScrubResult struct {
	Report *VerifyReport
	// Quarantined lists the partitions moved to quarantine/.
	Quarantined []Partition
	// EntriesDropped lists manifest entries removed because their file
	// was missing.
	EntriesDropped []Partition
}

// Scrub audits the store (Verify) and then repairs what it can:
// partitions with corrupt data, index footer included, move to
// quarantine/ and are logged in quarantine/QUARANTINE.json; manifest entries
// for missing or quarantined partitions are dropped so the rewritten
// MANIFEST matches the surviving files and the store serves the
// remaining days. The store's data files are never deleted — only
// moved — so an operator can attempt recovery from quarantine/. When
// Verify fails (a partition in a format this package does not read, or
// a directory without a MANIFEST), Scrub returns its error and moves
// nothing.
func Scrub(ctx context.Context, f *FileStore) (*ScrubResult, error) {
	report, err := Verify(ctx, f)
	if err != nil {
		return nil, err
	}
	res := &ScrubResult{Report: report}
	if report.OK() {
		return res, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	qdir := filepath.Join(f.dir, QuarantineDirName)
	var qrecs []QuarantineRecord
	now := time.Now().UTC().Format(time.RFC3339)
	for _, issue := range report.Issues {
		p := Partition{Day: issue.Day, Shard: issue.Shard}
		if err := f.fs.MkdirAll(qdir, 0o755); err != nil {
			return res, fmt.Errorf("trace: scrub creating quarantine dir: %w", err)
		}
		src := f.partitionPath(p.Day, p.Shard)
		dst := filepath.Join(qdir, filepath.Base(src))
		if err := f.fs.Rename(src, dst); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return res, fmt.Errorf("trace: quarantining day %d shard %d: %w", p.Day, p.Shard, err)
		}
		qrecs = append(qrecs, QuarantineRecord{
			File:  filepath.Base(src),
			Day:   p.Day,
			Shard: p.Shard,
			Class: issue.Class,
			Error: issue.Detail,
			Time:  now,
		})
		res.Quarantined = append(res.Quarantined, p)
	}
	if len(qrecs) > 0 {
		existing, err := LoadQuarantine(f.fs, f.dir)
		if err != nil {
			return res, err
		}
		all := append(existing, qrecs...)
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return res, err
		}
		if err := faultfs.WriteFileAtomic(f.fs, filepath.Join(qdir, QuarantineLogName), data, 0o644); err != nil {
			return res, fmt.Errorf("trace: writing quarantine log: %w", err)
		}
		if err := f.fs.SyncDir(f.dir); err != nil {
			return res, err
		}
	}
	// Rewrite the manifest without the quarantined and missing entries,
	// so the index matches the surviving files again and incremental
	// consumers observe the change as a generation bump.
	m, err := f.Manifest()
	if err != nil {
		return res, err
	}
	gone := make(map[Partition]bool, len(res.Quarantined)+len(report.Missing))
	for _, p := range res.Quarantined {
		gone[p] = true
	}
	for _, p := range report.Missing {
		gone[p] = true
		res.EntriesDropped = append(res.EntriesDropped, p)
	}
	if len(gone) == 0 {
		return res, nil
	}
	kept := m.Partitions[:0]
	for _, pi := range m.Partitions {
		if !gone[pi.Partition()] {
			kept = append(kept, pi)
		}
	}
	m.Partitions = kept
	m.Gen++
	return res, writeManifest(f.fs, f.manifestPath(), m)
}
