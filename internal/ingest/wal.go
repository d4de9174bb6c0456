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
	"math"
	"os"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/faultfs"
	"telcolens/internal/topology"
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
// truncation only ever discards unacknowledged data.
var walMagic = [8]byte{'T', 'L', 'W', 'A', 'L', '0', '0', '1'}

const (
	// frameBatch carries one batch of records for the file's day:
	// stream uint32 | seq uint64 | count uint32 | count * record.
	frameBatch = byte(1)
	// frameDayDone marks the day complete and carries its generation
	// ground truth: day uint32 | JSON DayAggregate.
	frameDayDone = byte(2)

	frameHeaderLen = 1 + 4 + 4

	// walRecordLen is the fixed on-log record image:
	// ts i64 | ue u32 | tac u32 | source u32 | target u32 |
	// cause u16 | packed RATs u8 | result u8 | duration f32 bits.
	walRecordLen = 32

	// batchHeaderLen prefixes every batch payload: stream | seq | count.
	batchHeaderLen = 4 + 8 + 4

	// maxFramePayload bounds a single frame (sanity check on replay; a
	// length field beyond it is treated as a torn tail, not an
	// allocation request).
	maxFramePayload = 64 << 20
)

// appendRecord appends row i of cb as a fixed-width wire image.
func appendRecord(dst []byte, cb *trace.ColumnBatch, i int) []byte {
	var buf [walRecordLen]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(cb.Timestamps[i]))
	binary.LittleEndian.PutUint32(buf[8:], uint32(cb.UEs[i]))
	binary.LittleEndian.PutUint32(buf[12:], uint32(cb.TACs[i]))
	binary.LittleEndian.PutUint32(buf[16:], uint32(cb.Sources[i]))
	binary.LittleEndian.PutUint32(buf[20:], uint32(cb.Targets[i]))
	binary.LittleEndian.PutUint16(buf[24:], uint16(cb.Causes[i]))
	buf[26] = cb.RATs[i]
	buf[27] = byte(cb.Results[i])
	binary.LittleEndian.PutUint32(buf[28:], math.Float32bits(cb.Durations[i]))
	return append(dst, buf[:]...)
}

// AppendBatchPayload appends the wire form of a record batch — the body
// of a binary POST /ingest request and of a WAL batch frame — to dst:
// the (stream, seq) idempotency key, the row count, then every row of cb
// as a fixed-width image.
func AppendBatchPayload(dst []byte, stream uint32, seq uint64, cb *trace.ColumnBatch) []byte {
	var hdr [batchHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], stream)
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cb.Len()))
	dst = append(dst, hdr[:]...)
	for i := 0; i < cb.Len(); i++ {
		dst = appendRecord(dst, cb, i)
	}
	return dst
}

// DecodeBatchPayload parses a record-batch wire payload, appending the
// rows to cb (which is NOT reset — callers accumulate).
func DecodeBatchPayload(p []byte, cb *trace.ColumnBatch) (stream uint32, seq uint64, n int, err error) {
	if len(p) < batchHeaderLen {
		return 0, 0, 0, fmt.Errorf("ingest: batch payload too short (%d bytes)", len(p))
	}
	stream = binary.LittleEndian.Uint32(p[0:])
	seq = binary.LittleEndian.Uint64(p[4:])
	n = int(binary.LittleEndian.Uint32(p[12:]))
	body := p[batchHeaderLen:]
	if len(body) != n*walRecordLen {
		return 0, 0, 0, fmt.Errorf("ingest: batch payload length %d does not match %d records", len(body), n)
	}
	var rec trace.Record
	for i := 0; i < n; i++ {
		b := body[i*walRecordLen:]
		rec.Timestamp = int64(binary.LittleEndian.Uint64(b[0:]))
		rec.UE = trace.UEID(binary.LittleEndian.Uint32(b[8:]))
		rec.TAC = devices.TAC(binary.LittleEndian.Uint32(b[12:]))
		rec.Source = topology.SectorID(binary.LittleEndian.Uint32(b[16:]))
		rec.Target = topology.SectorID(binary.LittleEndian.Uint32(b[20:]))
		rec.Cause = causes.Code(binary.LittleEndian.Uint16(b[24:]))
		rec.SourceRAT = topology.RAT(b[26] >> 4)
		rec.TargetRAT = topology.RAT(b[26] & 0x0f)
		rec.Result = trace.Result(b[27])
		rec.DurationMs = math.Float32frombits(binary.LittleEndian.Uint32(b[28:]))
		cb.AppendRecord(&rec)
	}
	return stream, seq, n, nil
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
// missing file replays as empty (0, nil). A file without the full magic
// header is treated as all torn tail (validSize 0).
func replayWAL(fsys faultfs.FS, path string, fn func(typ byte, payload []byte) error) (validSize int64, err error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("ingest: reading WAL %s: %w", path, err)
	}
	if len(data) < len(walMagic) || [8]byte(data[:8]) != walMagic {
		return 0, nil
	}
	off := int64(len(walMagic))
	for {
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			return off, nil // clean EOF or torn header
		}
		typ := rest[0]
		plen := int64(binary.LittleEndian.Uint32(rest[1:]))
		crc := binary.LittleEndian.Uint32(rest[5:])
		if typ != frameBatch && typ != frameDayDone {
			return off, nil
		}
		if plen > maxFramePayload || int64(len(rest)) < frameHeaderLen+plen {
			return off, nil
		}
		payload := rest[frameHeaderLen : frameHeaderLen+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return off, nil
		}
		if err := fn(typ, payload); err != nil {
			return off, err
		}
		off += frameHeaderLen + plen
	}
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
