// Package tracetest builds trace-store fixtures for tests outside the
// trace package.
package tracetest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"telcolens/internal/trace"
)

// ReencodeV2 rewrites every partition of the file store in dir as a v2
// stream with blockRecords records per block — the format campaigns
// were written in before v3 became the only write format. The MANIFEST
// entries and the fingerprints of the .tlix sidecars follow the new
// bytes, so the directory scans, verifies and queries exactly as one a
// v2 writer produced. blockRecords must be the store's block size for
// the sidecars' block summaries to stay aligned.
func ReencodeV2(dir string, blockRecords int) error {
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		return err
	}
	m, err := fs.Manifest()
	if err != nil {
		return err
	}
	for i := range m.Partitions {
		pi := &m.Partitions[i]
		data, err := encodeV2(fs, pi.Day, pi.Shard, blockRecords)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("ho_day_%03d", pi.Day)
		if pi.Shard > 0 {
			name += fmt.Sprintf("_s%03d", pi.Shard)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path+".tlho", data, 0o644); err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(data)
		pi.Bytes, pi.Fingerprint = int64(len(data)), h.Sum64()
		if err := restampIndex(path+trace.IndexSuffix, pi.Fingerprint); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, trace.ManifestName), data, 0o644)
}

// encodeV2 reads one partition and returns it as a v2 stream.
func encodeV2(fs *trace.FileStore, day, shard, blockRecords int) ([]byte, error) {
	it, err := fs.OpenPartition(day, shard)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var buf bytes.Buffer
	w, err := trace.NewWriterV2(&buf, trace.WriterV2Options{BlockRecords: blockRecords})
	if err != nil {
		return nil, err
	}
	defer w.Release()
	var cb trace.ColumnBatch
	for {
		n, err := it.NextColumns(&cb)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		if err := w.WriteColumns(&cb); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restampIndex points a .tlix sidecar (if present) at a new stream
// fingerprint: bytes 8..16 of its header, then the trailing FNV-1a
// checksum over everything before it.
func restampIndex(path string, fingerprint uint64) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(data[8:16], fingerprint)
	h := fnv.New64a()
	h.Write(data[:len(data)-8])
	binary.LittleEndian.PutUint64(data[len(data)-8:], h.Sum64())
	return os.WriteFile(path, data, 0o644)
}
