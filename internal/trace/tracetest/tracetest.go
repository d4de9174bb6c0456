// Package tracetest builds trace-store fixtures for tests outside the
// trace package.
package tracetest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"telcolens/internal/trace"
)

// Reblock rewrites every partition of the file store in dir with
// blockRecords records per block: the same records, in other bytes.
// Each MANIFEST entry takes the new size and fingerprint. The .tlix
// sidecars summarise the old blocks, so they are removed and the
// entries marked unindexed, as for a partition whose sidecar was lost.
func Reblock(dir string, blockRecords int) error {
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
		data, err := encode(fs, pi.Day, pi.Shard, blockRecords)
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
		if err := os.Remove(path + trace.IndexSuffix); err != nil && !os.IsNotExist(err) {
			return err
		}
		h := fnv.New64a()
		h.Write(data)
		pi.Bytes, pi.Fingerprint, pi.IndexVersion = int64(len(data)), h.Sum64(), 0
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, trace.ManifestName), data, 0o644)
}

// encode reads one partition and returns it as a stream with
// blockRecords records per block.
func encode(fs *trace.FileStore, day, shard, blockRecords int) ([]byte, error) {
	it, err := fs.OpenPartition(day, shard)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var buf bytes.Buffer
	w, err := trace.NewWriterV3(&buf, trace.WriterV3Options{BlockRecords: blockRecords})
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
