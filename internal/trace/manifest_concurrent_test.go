package trace

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestManifestAtomicRewriteUnderConcurrentReader pins the contract the
// streaming ingest path leans on: while a writer closes partitions (each
// close is a full MANIFEST rewrite via temp-file + rename) and removes
// debris, concurrent readers diffing the manifest against the last
// generation they saw, through their own FileStore handles, must only
// ever observe
//
//   - a complete, parseable index (a torn or half-written MANIFEST is a
//     bug in the rewrite, surfaced as a decode error),
//   - a generation that never moves backwards, and
//   - diffs that, replayed in sequence, reconstruct exactly the final
//     partition set — the property telcoserve's refresh loop relies on
//     to merge sealed days without a full rescan.
//
// Until the first partition commits, the directory holds that
// partition's file and no MANIFEST, which reads as ErrNoManifest; once a
// reader has seen a MANIFEST, every later read must succeed.
func TestManifestAtomicRewriteUnderConcurrentReader(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	const days = 24
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(format string, a ...any) {
		select {
		case errs <- fmt.Errorf(format, a...):
		default:
		}
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader, err := NewFileStore(dir)
			if err != nil {
				fail("opening reader: %v", err)
				return
			}
			seen := make(map[Partition]uint64) // partition -> fingerprint at last diff
			var gen uint64
			scan := func() bool {
				m, err := reader.Manifest()
				if errors.Is(err, ErrNoManifest) && gen == 0 {
					return true // the first partition is still landing
				}
				if err != nil {
					// In particular a JSON decode failure: the rewrite tore.
					fail("mid-rewrite read: %v", err)
					return false
				}
				if m.Gen < gen {
					fail("manifest generation moved backwards: %d -> %d", gen, m.Gen)
					return false
				}
				for _, pi := range m.Partitions {
					if pi.Gen > gen {
						seen[pi.Partition()] = pi.Fingerprint
					}
				}
				gen = m.Gen
				return true
			}
			for !done.Load() {
				if !scan() {
					return
				}
			}
			// Settled read after the writer finished: the replayed diffs
			// must equal the full index. (The diff protocol only reports
			// additions and changes; the writer re-adds everything it
			// removes, so no removal tracking is needed here.)
			if !scan() {
				return
			}
			m, err := reader.Manifest()
			if err != nil {
				fail("settled manifest unreadable: %v", err)
				return
			}
			for i := range m.Partitions {
				pi := &m.Partitions[i]
				fp, ok := seen[pi.Partition()]
				if !ok {
					fail("reader missed partition day %d shard %d", pi.Day, pi.Shard)
					return
				}
				if fp != pi.Fingerprint {
					fail("reader holds stale fingerprint for day %d shard %d", pi.Day, pi.Shard)
					return
				}
			}
		}()
	}

	for day := 0; day < days; day++ {
		for shard := 0; shard < 2; shard++ {
			writeTestPartition(t, writer, day, shard, 20+day)
		}
		if day%5 == 4 {
			// Debris churn: remove the day and land a replacement with
			// different content, as a crashed-and-recovered ingest seal does.
			if _, err := writer.DiscardFrom(day); err != nil {
				t.Fatal(err)
			}
			writeTestPartition(t, writer, day, 0, 40+day)
			writeTestPartition(t, writer, day, 1, 40+day)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent reader: %v", err)
	}
}
