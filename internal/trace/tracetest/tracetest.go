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

// Reblock rewrites every partition of the file store in dir with
// blockRecords records per block: the same records, in other bytes,
// each with the index footer of its new blocks. Each MANIFEST entry
// takes the new size and fingerprint.
func Reblock(dir string, blockRecords int) error {
	return rewritePartitions(dir, func(fs *trace.FileStore, pi *trace.PartitionInfo, _ []byte) ([]byte, error) {
		return encode(fs, pi.Day, pi.Shard, blockRecords)
	})
}

// rewritePartitions replaces every partition file of the file store in
// dir with what fn makes of its bytes, and points each MANIFEST entry
// at the new bytes' size and fingerprint.
func rewritePartitions(dir string, fn func(fs *trace.FileStore, pi *trace.PartitionInfo, data []byte) ([]byte, error)) error {
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
		name := fmt.Sprintf("ho_day_%03d", pi.Day)
		if pi.Shard > 0 {
			name += fmt.Sprintf("_s%03d", pi.Shard)
		}
		path := filepath.Join(dir, name+".tlho")
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if data, err = fn(fs, pi, data); err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(data)
		pi.Bytes, pi.Fingerprint = int64(len(data)), h.Sum64()
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, trace.ManifestName), data, 0o644)
}

// encode reads one partition and returns it as a stream with
// blockRecords records per block and its index footer.
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

// FooterDamages names the ways DamageFooter breaks a partition's index
// footer.
var FooterDamages = []string{"byte-flipped", "cut-to-trailer", "length-outside-file"}

// DamageFooter breaks the index footer of the partition file at path,
// leaving its blocks and the MANIFEST as they were: "byte-flipped"
// flips the footer's last byte, "cut-to-trailer" removes the footer and
// keeps its trailer, and "length-outside-file" makes the trailer's
// footer length point past the start of the file.
func DamageFooter(path, how string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	trailer := len(data) - trace.TrailerSize
	switch how {
	case "byte-flipped":
		data[trailer-1] ^= 0x10
	case "cut-to-trailer":
		data = append(data[:footerStart(data)], data[trailer:]...)
	case "length-outside-file":
		binary.LittleEndian.PutUint32(data[trailer:], uint32(len(data)))
	default:
		return fmt.Errorf("tracetest: unknown footer damage %q", how)
	}
	return os.WriteFile(path, data, 0o644)
}

// DowngradeToV3 rewrites every partition of the file store in dir as
// the v3 format wrote it, its index in a separate sidecar: the same
// header and blocks under version 3, without the end-of-blocks marker
// and the footer. Each MANIFEST entry takes the new size and
// fingerprint, so the files are intact v3 partitions.
func DowngradeToV3(dir string) error {
	return rewritePartitions(dir, func(_ *trace.FileStore, _ *trace.PartitionInfo, data []byte) ([]byte, error) {
		data = data[:footerStart(data)-4] // the blocks end before the marker
		binary.LittleEndian.PutUint16(data[4:6], 3)
		return data, nil
	})
}

// footerStart returns the offset of the index footer that ends an
// intact partition file's bytes.
func footerStart(data []byte) int {
	trailer := len(data) - trace.TrailerSize
	return trailer - int(binary.LittleEndian.Uint32(data[trailer:]))
}
