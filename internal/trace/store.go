package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"telcolens/internal/faultfs"
)

// A Partition identifies one trace partition: a study day split into
// hash-sharded sub-streams. Shard 0 of an unsharded store is the whole
// day (the paper's pipeline lands one multi-terabyte capture per day;
// sharding by UE lets the analysis fan out over cores and machines).
type Partition struct {
	Day   int
	Shard int
}

// Less orders partitions by (day, shard), the canonical scan order.
func (p Partition) Less(q Partition) bool {
	if p.Day != q.Day {
		return p.Day < q.Day
	}
	return p.Shard < q.Shard
}

// A Store holds (day, shard)-partitioned handover traces.
//
// AppendPartition returns a writer for one partition; OpenPartition
// returns an iterator over it. A partition may only be written once and
// must be closed before it is read; day and shard both lie in [0, 999].
// Manifest returns the store's partition index, the one list of
// finished partitions every reader uses; Partitions is its keys in
// canonical (day, shard) order.
type Store interface {
	AppendPartition(day, shard int) (RecordWriter, error)
	OpenPartition(day, shard int) (RecordIterator, error)
	Partitions() ([]Partition, error)
	Manifest() (*Manifest, error)
}

// maxPartitionKey bounds partition days and shards: both lie in
// [0, maxPartitionKey], the range the file layout's three-digit names
// can spell.
const maxPartitionKey = 999

// checkPartitionKey rejects a day or shard outside [0, maxPartitionKey].
func checkPartitionKey(day, shard int) error {
	if day < 0 || day > maxPartitionKey {
		return fmt.Errorf("trace: day %d out of range [0, %d]", day, maxPartitionKey)
	}
	if shard < 0 || shard > maxPartitionKey {
		return fmt.Errorf("trace: shard %d out of range [0, %d]", shard, maxPartitionKey)
	}
	return nil
}

// RecordWriter receives one partition's records as columnar (SoA)
// batches. WriteColumns stores every row of cb, in row order; the batch
// stays caller-owned and unmodified, so callers may reuse it. Writers
// encode blocks straight from the column slices.
type RecordWriter interface {
	WriteColumns(*ColumnBatch) error
	Close() error
}

// RecordIterator streams one partition as columnar (SoA) batches.
// NextColumns fills cb, reusing its slices, and returns how many rows it
// holds; 0 with a nil error means end of stream. Rows arrive in storage
// order, each block decoded straight into the column slices without
// materializing records.
//
// SetTimeRange, called before the first NextColumns, restricts the
// stream to minTS <= Timestamp <= maxTS, pruning whole blocks outside
// the window without decoding them.
//
// SetProjection and SetBlockFilter, also called before the first
// NextColumns, are pruning hints, not filters: an iterator may ignore
// either and decode everything. SetProjection names the columns the
// caller reads, so only those are guaranteed valid. SetBlockFilter skips
// whole blocks by stream ordinal before decoding their payload; it is
// consulted for every block the time range did not already prune, and
// ordinals count every block in stream order (range-pruned ones too), so
// they align with a PartitionIndex's Blocks slice. Callers pass it only
// blocks an index proves cannot match, so a filtered block changes no
// result.
//
// ReadStats reports the block read/skip counters so far (see
// ScanMetrics).
type RecordIterator interface {
	NextColumns(cb *ColumnBatch) (int, error)
	SetTimeRange(minTS, maxTS int64)
	SetProjection(cols ColumnSet)
	SetBlockFilter(keep func(block int) bool)
	ReadStats() BlockStats
	Close() error
}

// ShardOf maps a UE to its shard via a 64-bit finalizer hash, so every
// record of a UE lands in the same shard on every day. Partitioning by UE
// keeps per-UE analyses (mobility, gyration, ping-pong) shard-local.
func ShardOf(ue UEID, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := uint64(ue)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(shards))
}

// ForEach streams every record of every partition in canonical
// (day, shard) order through fn: the record-granular convenience over
// the columnar iterators. rec is reused between calls.
func ForEach(s Store, fn func(day int, rec *Record) error) error {
	parts, err := s.Partitions()
	if err != nil {
		return err
	}
	var cb ColumnBatch
	var rec Record
	for _, p := range parts {
		it, err := s.OpenPartition(p.Day, p.Shard)
		if err != nil {
			return err
		}
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				it.Close()
				return err
			}
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				cb.Record(i, &rec)
				if err := fn(p.Day, &rec); err != nil {
					it.Close()
					return err
				}
			}
		}
		if err := it.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the total number of records in the store, answered from
// the manifest's per-partition record counts without opening a single
// partition file.
func Count(s Store) (int64, error) {
	m, err := s.Manifest()
	if err != nil {
		return 0, err
	}
	return m.TotalRecords(), nil
}

// FileStoreOptions tunes how a FileStore writes and reads partitions.
// Every partition is a v4 stream, its index its footer; one in a format
// earlier versions wrote fails to open with ErrBadVersion.
type FileStoreOptions struct {
	// BlockRecords is the records-per-block size (0 = default).
	BlockRecords int
	// FS routes every filesystem operation the store performs; nil means
	// the real OS. Chaos tests pass a faultfs.Fault here.
	FS faultfs.FS
	// VerifyReads re-hashes each partition stream as it is scanned and,
	// at end of stream, compares the hash and byte count against the
	// partition's MANIFEST fingerprint, turning silent corruption
	// (bit rot, truncation the codec happens to survive) into a
	// CorruptionError. A partition the MANIFEST does not list scans
	// unverified.
	VerifyReads bool
}

// FileStore persists partitions as binary trace files in a directory.
// Shard 0 keeps the bare day-file name (ho_day_DDD.tlho), other shards
// add a suffix (ho_day_DDD_sSSS.tlho).
//
// Alongside the partition files the store maintains a MANIFEST index
// (see Manifest): every writer close folds the finished partition's
// record count, time extents and content fingerprint into it and
// rewrites it atomically, and a partition exists for readers only once
// the MANIFEST names it. The manifest is re-read from disk on every
// update and query, so several FileStore instances (or processes — a
// generator appending days while a serving daemon watches) can share one
// directory.
type FileStore struct {
	dir  string
	opts FileStoreOptions
	fs   faultfs.FS
	// mu serializes this instance's manifest read-modify-write cycles.
	mu sync.Mutex
}

// NewFileStore creates (if needed) and opens a directory-backed store
// with default options.
func NewFileStore(dir string) (*FileStore, error) {
	return NewFileStoreOpts(dir, FileStoreOptions{})
}

// NewFileStoreOpts creates (if needed) and opens a directory-backed
// store with explicit options.
func NewFileStoreOpts(dir string, opts FileStoreOptions) (*FileStore, error) {
	fsys := faultfs.Resolve(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: creating store dir: %w", err)
	}
	return &FileStore{dir: dir, opts: opts, fs: fsys}, nil
}

// Dir returns the backing directory.
func (f *FileStore) Dir() string { return f.dir }

// Options returns the options this store was opened with.
func (f *FileStore) Options() FileStoreOptions { return f.opts }

func (f *FileStore) partitionPath(day, shard int) string {
	if shard == 0 {
		return filepath.Join(f.dir, fmt.Sprintf("ho_day_%03d.tlho", day))
	}
	return filepath.Join(f.dir, fmt.Sprintf("ho_day_%03d_s%03d.tlho", day, shard))
}

// PartitionIndex loads the index footer of the partition pi describes,
// with two positioned reads of the file's tail: the trailer at pi.Bytes,
// the MANIFEST's size, then the footer it locates. A footer that does
// not decode, or a trailer that points outside the partition, is
// ErrIndexCorrupt and callers scan the partition instead. Any other
// error is a failed read.
func (f *FileStore) PartitionIndex(pi PartitionInfo) (*PartitionIndex, error) {
	// room is the most footer a partition of pi.Bytes bytes can hold.
	room := pi.Bytes - HeaderSize - int64(len(endOfBlocks)) - TrailerSize
	if room < 0 {
		return nil, ErrIndexCorrupt
	}
	file, err := faultfs.Open(f.fs, f.partitionPath(pi.Day, pi.Shard))
	if err != nil {
		return nil, fmt.Errorf("trace: reading partition index: %w", err)
	}
	defer file.Close()
	var trailer [TrailerSize]byte
	if err := readTail(file, trailer[:], pi.Bytes-TrailerSize); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if n > room {
		return nil, ErrIndexCorrupt
	}
	tail := make([]byte, n+TrailerSize)
	if err := readTail(file, tail[:n], pi.Bytes-TrailerSize-n); err != nil {
		return nil, err
	}
	copy(tail[n:], trailer[:])
	return DecodeIndex(tail)
}

// readTail fills p from file at off. A file that ends before p is full
// is shorter than its MANIFEST entry says: ErrIndexCorrupt.
func readTail(file faultfs.File, p []byte, off int64) error {
	n, err := file.ReadAt(p, off)
	switch {
	case n == len(p):
		return nil
	case err == io.EOF:
		return ErrIndexCorrupt
	}
	return fmt.Errorf("trace: reading partition index: %w", err)
}

// partitionNameRE matches exactly the two partition file layouts; anything
// else (tmp files, backups, editor droppings) is not a partition. Sscanf
// parsing accepted trailing garbage like "ho_day_001.tlho.bak".
var partitionNameRE = regexp.MustCompile(`^ho_day_(\d{3})(?:_s(\d{3}))?\.tlho$`)

// parsePartitionName resolves a directory entry to its partition, strictly.
func parsePartitionName(name string) (Partition, bool) {
	m := partitionNameRE.FindStringSubmatch(name)
	if m == nil {
		return Partition{}, false
	}
	day, err := strconv.Atoi(m[1])
	if err != nil {
		return Partition{}, false
	}
	shard := 0
	if m[2] != "" {
		shard, err = strconv.Atoi(m[2])
		if err != nil || shard == 0 {
			// Shard 0 is always the bare day file; an explicit _s000
			// suffix is not a name this store ever writes.
			return Partition{}, false
		}
	}
	return Partition{Day: day, Shard: shard}, true
}

// AppendPartition starts a new partition file. In a directory that
// holds neither a MANIFEST nor a partition file it first writes an
// empty MANIFEST (Gen 0), so readers of a fresh store see it empty, not
// refused, while its first partition is being written.
func (f *FileStore) AppendPartition(day, shard int) (RecordWriter, error) {
	if err := checkPartitionKey(day, shard); err != nil {
		return nil, err
	}
	if err := f.initManifest(); err != nil {
		return nil, err
	}
	path := f.partitionPath(day, shard)
	file, err := f.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, iofs.ErrExist) {
			return nil, fmt.Errorf("trace: partition day %d shard %d already written (%s)", day, shard, path)
		}
		return nil, fmt.Errorf("trace: creating partition file: %w", err)
	}
	// The codec writes through the digest tee, so the manifest
	// fingerprint covers exactly the stored bytes, index footer included.
	digest := newPartitionDigest()
	w, err := NewWriterV3(&digestWriter{w: file, d: digest}, WriterV3Options{BlockRecords: f.opts.BlockRecords})
	if err != nil {
		file.Close()
		f.fs.Remove(path)
		return nil, err
	}
	return &fileWriter{file: file, w: w, store: f, day: day, shard: shard, digest: digest}, nil
}

// manifestPath returns the store's MANIFEST location.
func (f *FileStore) manifestPath() string { return filepath.Join(f.dir, ManifestName) }

// Manifest returns the store's MANIFEST as written: the committed
// partitions, whatever the directory listing says. A file the MANIFEST
// does not list is not part of the store, and a listed partition whose
// file is gone fails when it is read (Scrub drops its entry). A
// directory without a MANIFEST is an empty store (Gen 0) when it holds
// no partition file, and fails with ErrNoManifest when it does: a
// campaign written before the store kept a MANIFEST.
func (f *FileStore) Manifest() (*Manifest, error) {
	m, err := loadManifest(f.fs, f.manifestPath())
	if err != nil || m != nil {
		return m, err
	}
	parts, err := f.listPartitions()
	if err != nil {
		return nil, err
	}
	if len(parts) > 0 {
		return nil, fmt.Errorf("%w (%s)", ErrNoManifest, f.dir)
	}
	return &Manifest{}, nil
}

// initManifest writes an empty MANIFEST into a directory that has
// neither a MANIFEST nor a partition file. A directory with partition
// files but no MANIFEST is left alone: its commits refuse it.
func (f *FileStore) initManifest() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.fs.Stat(f.manifestPath()); !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	parts, err := f.listPartitions()
	if err != nil || len(parts) > 0 {
		return err
	}
	return writeManifest(f.fs, f.manifestPath(), &Manifest{})
}

// notePartitionClosed folds one finished partition into the MANIFEST
// under an atomic full rewrite. The index is re-read from disk first so
// concurrent writers through other FileStore instances are preserved.
func (f *FileStore) notePartitionClosed(info PartitionInfo) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, err := f.Manifest()
	if err != nil {
		return err
	}
	m.upsert(info)
	return writeManifest(f.fs, f.manifestPath(), m)
}

// DiscardFrom removes every partition file of day or later, whether
// the MANIFEST lists it or not, and returns the
// partitions it removed. When there is any, the MANIFEST first drops
// every entry of day or later in one rewrite, so a crash part-way
// leaves unlisted files for the next call, never entries without
// files. This is crash-debris removal (an append or seal that died
// before its campaign descriptor committed the day; the days are
// regenerated byte for byte), so it also works on a directory without
// a MANIFEST. Analysis never removes data.
func (f *FileStore) DiscardFrom(day int) ([]Partition, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	onDisk, err := f.listPartitions()
	if err != nil {
		return nil, err
	}
	var debris []Partition
	for _, p := range onDisk {
		if p.Day >= day {
			debris = append(debris, p)
		}
	}
	if len(debris) == 0 {
		return nil, nil
	}
	m, err := loadManifest(f.fs, f.manifestPath())
	if err != nil {
		return nil, err
	}
	if m != nil {
		kept := make([]PartitionInfo, 0, len(m.Partitions))
		for _, pi := range m.Partitions {
			if pi.Day < day {
				kept = append(kept, pi)
			}
		}
		if len(kept) < len(m.Partitions) {
			m.Partitions = kept
			m.Gen++
			if err := writeManifest(f.fs, f.manifestPath(), m); err != nil {
				return nil, err
			}
		}
	}
	for i, p := range debris {
		if err := f.fs.Remove(f.partitionPath(p.Day, p.Shard)); err != nil {
			return debris[:i], fmt.Errorf("trace: removing partition day %d shard %d: %w", p.Day, p.Shard, err)
		}
	}
	return debris, nil
}

// OpenPartition iterates a partition file. With VerifyReads set, the
// stream is re-hashed while it is read and checked against the
// partition's manifest fingerprint at end of stream (see
// FileStoreOptions.VerifyReads).
//
// The iterator reads through a read window taken from a pool shared by
// every open (scans, queries and refreshes alike); Close returns it, so
// opening partition after partition allocates no window in steady
// state. An iterator used after Close fails instead of reading a window
// another open may already own.
func (f *FileStore) OpenPartition(day, shard int) (RecordIterator, error) {
	file, err := faultfs.Open(f.fs, f.partitionPath(day, shard))
	if err != nil {
		return nil, fmt.Errorf("trace: opening day %d shard %d: %w", day, shard, err)
	}
	var verify *readVerifier
	var src io.Reader = file
	if f.opts.VerifyReads {
		if m, merr := loadManifest(f.fs, f.manifestPath()); merr == nil && m != nil {
			if pi, ok := m.Lookup(Partition{Day: day, Shard: shard}); ok {
				verify = &readVerifier{expect: pi, digest: newPartitionDigest()}
				verify.src = file
				src = verify
			}
		}
	}
	window := getWindow(src)
	r, err := newWindowReader(window)
	if err != nil {
		putWindow(window)
		file.Close()
		return nil, err
	}
	return &fileIterator{Reader: r, file: file, window: window, day: day, shard: shard, verify: verify}, nil
}

// Partitions lists the MANIFEST's partitions in canonical order.
func (f *FileStore) Partitions() ([]Partition, error) {
	m, err := f.Manifest()
	if err != nil {
		return nil, err
	}
	parts := make([]Partition, len(m.Partitions))
	for i := range m.Partitions {
		parts[i] = m.Partitions[i].Partition()
	}
	return parts, nil
}

// listPartitions lists the partition files present in the directory, in
// canonical order. Readers never use it: only Verify (orphans), the
// ErrNoManifest refusal and DiscardFrom look past the MANIFEST.
func (f *FileStore) listPartitions() ([]Partition, error) {
	entries, err := f.fs.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("trace: listing store dir: %w", err)
	}
	var parts []Partition
	for _, e := range entries {
		if p, ok := parsePartitionName(e.Name()); ok {
			parts = append(parts, p)
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Less(parts[j]) })
	return parts, nil
}

// digestWriter tees stream bytes into the manifest digest on their way
// to the partition file.
type digestWriter struct {
	w io.Writer
	d *partitionDigest
}

func (t *digestWriter) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	t.d.observeBytes(p[:n])
	return n, err
}

// fileWriter wraps the stream writer with the store-level bookkeeping
// every landed record needs: the timestamp extents and fingerprint of
// the partition's MANIFEST entry (digest).
//
// A write error is sticky: once any record fails to land, the stream
// is poisoned and Close aborts — the partial partition file is removed
// and never reaches the MANIFEST, so a failed append leaves the store
// exactly as it was.
type fileWriter struct {
	file   faultfs.File
	w      *WriterV3
	store  *FileStore
	day    int
	shard  int
	digest *partitionDigest
	closed bool
	werr   error
}

// fail poisons the writer and returns the error.
func (w *fileWriter) fail(err error) error {
	if w.werr == nil {
		w.werr = err
	}
	return err
}

// abort releases the codec, closes the handle, and removes the partial
// partition file, so no uncommitted .tlho is left for Verify to report
// as an orphan.
func (w *fileWriter) abort(cause error) error {
	w.w.Release()
	w.file.Close()
	w.store.fs.Remove(w.store.partitionPath(w.day, w.shard))
	return fmt.Errorf("trace: partition day %d shard %d aborted: %w", w.day, w.shard, cause)
}

// WriteColumns lands a columnar batch: timestamp extents fold into the
// manifest digest, then the codec encodes it.
func (w *fileWriter) WriteColumns(cb *ColumnBatch) error {
	if w.closed {
		return fmt.Errorf("trace: write to closed partition day %d shard %d", w.day, w.shard)
	}
	if w.werr != nil {
		return w.werr
	}
	for _, ts := range cb.Timestamps {
		w.digest.observeTS(ts)
	}
	if err := w.w.WriteColumns(cb); err != nil {
		return w.fail(err)
	}
	return nil
}

// Close commits the partition: flush the codec, which ends the stream
// with its index footer, fsync the partition file, then fold the entry
// into the MANIFEST (whose atomic rewrite fsyncs the directory, making
// the new partition itself durable). Any failure along the way aborts
// instead — the partial file is removed so the store's prior state is
// exactly preserved.
func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.werr != nil {
		return w.abort(w.werr)
	}
	if err := w.w.Flush(); err != nil {
		return w.abort(err)
	}
	// Return the codec's pooled encode scratch now that the stream is
	// complete.
	w.w.Release()
	if err := w.file.Sync(); err != nil {
		return w.abort(err)
	}
	if err := w.file.Close(); err != nil {
		w.store.fs.Remove(w.store.partitionPath(w.day, w.shard))
		return fmt.Errorf("trace: partition day %d shard %d aborted: %w", w.day, w.shard, err)
	}
	if err := w.store.notePartitionClosed(w.digest.info(w.day, w.shard, w.w.Count())); err != nil {
		w.store.fs.Remove(w.store.partitionPath(w.day, w.shard))
		return err
	}
	return nil
}

// readVerifier tees every byte the codec pulls from the partition file
// into a fresh digest. The codec reader never seeks (range pruning
// discards through its buffer), so the tee observes the stream in file
// order; at the end-of-blocks marker the rest of the file, index footer
// included, is drained and the hash plus byte count are compared
// against the manifest entry recorded at write time.
type readVerifier struct {
	src    io.Reader
	digest *partitionDigest
	expect PartitionInfo
	done   bool
}

func (v *readVerifier) Read(p []byte) (int, error) {
	n, err := v.src.Read(p)
	if n > 0 {
		v.digest.observeBytes(p[:n])
	}
	return n, err
}

// finish drains the unread tail through the digest and compares. It
// runs once; later calls are free.
func (v *readVerifier) finish(day, shard int) error {
	if v.done {
		return nil
	}
	v.done = true
	if _, err := io.Copy(io.Discard, v); err != nil {
		return &CorruptionError{Day: day, Shard: shard, Class: CorruptIO, Err: err}
	}
	if v.digest.hash != v.expect.Fingerprint || v.digest.bytes != v.expect.Bytes {
		var err error
		if v.digest.bytes != v.expect.Bytes {
			err = fmt.Errorf("%w: stored %d bytes, manifest records %d",
				ErrChecksumMismatch, v.digest.bytes, v.expect.Bytes)
		} else {
			err = fmt.Errorf("%w: stream hash %016x, manifest fingerprint %016x",
				ErrChecksumMismatch, v.digest.hash, v.expect.Fingerprint)
		}
		class := CorruptChecksum
		if v.digest.bytes < v.expect.Bytes {
			class = CorruptTruncated
		}
		return &CorruptionError{Day: day, Shard: shard, Class: class, Err: err}
	}
	return nil
}

// fileIterator is a partition's RecordIterator: the stream Reader (whose
// SetTimeRange, SetProjection, SetBlockFilter and ReadStats it exposes)
// over a pooled read window of the partition file.
type fileIterator struct {
	*Reader
	file faultfs.File
	// window is the Reader's pooled read window, nil once Close has
	// returned it.
	window *bufio.Reader
	day    int
	shard  int
	verify *readVerifier
}

// errIteratorClosed is what a partition iterator returns when it is
// read after Close.
var errIteratorClosed = errors.New("trace: partition iterator used after Close")

// atEnd runs the verification pass when the stream is exhausted.
func (it *fileIterator) atEnd() error {
	if it.verify == nil {
		return nil
	}
	return it.verify.finish(it.day, it.shard)
}

// NextColumns hands out the next decoded batch in SoA form (one block,
// decoded without materializing records).
func (it *fileIterator) NextColumns(cb *ColumnBatch) (int, error) {
	if it.window == nil {
		return 0, errIteratorClosed
	}
	n, err := it.Reader.NextColumns(cb)
	if err == io.EOF {
		return 0, it.atEnd()
	}
	return n, err
}

// Close closes the file and returns the read window to the pool. Later
// reads fail with errIteratorClosed.
func (it *fileIterator) Close() error {
	if it.window != nil {
		it.Reader.r = nil
		putWindow(it.window)
		it.window = nil
	}
	return it.file.Close()
}
