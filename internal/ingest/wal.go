// Package ingest is the live streaming front end of telcolens: an HTTP
// endpoint (see Service.Handler) that accepts batched handover records,
// makes them durable in a per-day write-ahead log, accumulates them in
// in-memory columnar memtables, and seals completed study days into
// ordinary (day, shard) trace partitions through the batch-native
// column write path — bumping the store MANIFEST generation so an
// incremental consumer (telcoserve's Refresh loop) merges the delta
// without any change to the analysis layer.
//
// The crash-recovery invariant: a record is acknowledged only after its
// WAL frame is written, sealing is idempotent (partition debris from a
// crashed seal is removed and the day re-sealed from the WAL), and the
// seal sort is the canonical day-stream order (trace.CanonicalLess) —
// a total order over record content — so the sealed bytes are a function
// of the acknowledged record multiset alone. Kill the daemon at any
// point, restart, finish the replay: the partitions (and therefore every
// analysis artifact) are byte-identical to the same campaign generated
// through the batch simulate path.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"os"

	"telcolens/internal/faultfs"
	"telcolens/internal/trace"
)

// WAL file layout: an 8-byte magic header followed by a sequence of
// frames. Each frame is
//
//	type   uint8
//	length uint32  (payload bytes, little-endian)
//	crc    uint32  (CRC-32/IEEE of the payload)
//	payload
//
// The log is append-only and self-delimiting: replay walks frames until
// EOF or the first frame that is short, oversized, of unknown type, or
// fails its CRC — everything from there on is a torn tail (the partial
// write of a crashed append) and is truncated away. A record batch is
// acknowledged to the client only after its frame hit the log, so
// truncation only ever discards unacknowledged data. A crash tears only
// the last frame, so a whole frame that fails its CRC while the frame
// after it is intact is mid-file corruption: replay refuses the file
// rather than truncate acknowledged batches away.
var walMagic = [8]byte{'T', 'L', 'W', 'A', 'L', '0', '0', '2'}

const (
	// frameBatch carries one batch of records for the file's day, in
	// the wire form appendBatch writes.
	frameBatch = byte(1)
	// frameDayDone marks the day complete and carries its generation
	// ground truth: day uint32 | JSON DayAggregate.
	frameDayDone = byte(2)

	frameHeaderLen = 1 + 4 + 4

	// batchKeyLen prefixes every batch: stream u32 | seq u64.
	batchKeyLen = 4 + 8

	// maxFramePayload bounds a single frame (sanity check on replay; a
	// length field beyond it is treated as a torn tail, not an
	// allocation request).
	maxFramePayload = 64 << 20
)

// appendBatch appends the wire form of a record batch, the body of a
// binary POST /ingest request and of a WAL batch frame, to dst: the
// (stream, seq) idempotency key, then cb's rows as one trace block
// frame (trace.AppendBlock). cb must hold 1 to trace.MaxBlockRecords
// rows.
func appendBatch(dst []byte, stream uint32, seq uint64, cb *trace.ColumnBatch) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, stream)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return trace.AppendBlock(dst, cb)
}

// decodeBatch parses a record batch's wire form into cb, replacing its
// rows. It accepts exactly the bytes appendBatch writes.
func decodeBatch(p []byte, cb *trace.ColumnBatch) (stream uint32, seq uint64, err error) {
	if len(p) < batchKeyLen {
		return 0, 0, fmt.Errorf("ingest: %d-byte batch is shorter than its (stream, seq) key", len(p))
	}
	if err := trace.DecodeBlock(p[batchKeyLen:], cb); err != nil {
		return 0, 0, fmt.Errorf("ingest: batch: %w", err)
	}
	return binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint64(p[4:]), nil
}

// appendFrame writes one frame to w and reports the bytes written.
func appendFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return frameHeaderLen + len(payload), nil
}

// replayWAL reads a day WAL, invoking fn for every intact frame in
// order, and returns the byte offset of the end of the last intact frame
// — the length the file must be truncated to before further appends. A
// missing file replays as empty (0, nil), and so does one too short to
// hold the magic header (a crash while creating it). Any other header
// (an older format's, such as TLWAL001), mid-file corruption (see
// walMagic) and a frame fn rejects are errors.
func replayWAL(fsys faultfs.FS, path string, fn func(typ byte, payload []byte) error) (validSize int64, err error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("ingest: reading WAL %s: %w", path, err)
	}
	if len(data) < len(walMagic) {
		return 0, nil
	}
	if [8]byte(data[:8]) != walMagic {
		return 0, fmt.Errorf("ingest: WAL %s starts %q, and this binary reads only %q logs; "+
			"seal its day with the binary that wrote it, or remove the file and send the day again", path, data[:8], walMagic[:])
	}
	for off := int64(len(walMagic)); ; {
		typ, payload, ok, intact := frameAt(data, off)
		next := off + frameHeaderLen + int64(len(payload))
		if ok && !intact {
			if _, _, ok, intact := frameAt(data, next); ok && intact {
				return off, fmt.Errorf("ingest: WAL %s: the frame at offset %d fails its checksum but the frame after it is intact: "+
					"mid-file corruption, refusing to truncate acknowledged batches", path, off)
			}
		}
		if !ok || !intact {
			return off, nil // clean EOF or torn tail
		}
		if err := fn(typ, payload); err != nil {
			return off, fmt.Errorf("ingest: WAL %s: frame at offset %d: %w", path, off, err)
		}
		off = next
	}
}

// frameAt parses the frame that starts at data[off:]. ok is false where
// no whole frame of a known type and a plausible length fits, and intact
// reports whether the payload matches the frame's CRC.
func frameAt(data []byte, off int64) (typ byte, payload []byte, ok, intact bool) {
	rest := data[off:]
	if len(rest) < frameHeaderLen {
		return 0, nil, false, false
	}
	typ = rest[0]
	plen := int64(binary.LittleEndian.Uint32(rest[1:]))
	if (typ != frameBatch && typ != frameDayDone) || plen > maxFramePayload || int64(len(rest)) < frameHeaderLen+plen {
		return 0, nil, false, false
	}
	payload = rest[frameHeaderLen : frameHeaderLen+plen]
	return typ, payload, true, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(rest[5:])
}

// openWALForAppend truncates path to validSize (discarding a torn tail)
// and opens it for appending, writing the magic header when the file is
// new (validSize 0 with no intact header).
func openWALForAppend(fsys faultfs.FS, path string, validSize int64) (faultfs.File, int64, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: opening WAL %s: %w", path, err)
	}
	if validSize < int64(len(walMagic)) {
		validSize = 0
	}
	if validSize == 0 {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("ingest: resetting WAL %s: %w", path, err)
		}
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("ingest: writing WAL header: %w", err)
		}
		return f, int64(len(walMagic)), nil
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("ingest: truncating WAL %s to %d: %w", path, validSize, err)
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("ingest: seeking WAL %s: %w", path, err)
	}
	return f, validSize, nil
}
