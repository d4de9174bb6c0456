package query

import (
	"context"
	"maps"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"telcolens/internal/faultfs"
	"telcolens/internal/trace"
)

// sidecarReads is a filesystem wrapper counting .tlix loads per file.
type sidecarReads struct {
	faultfs.FS
	mu sync.Mutex
	n  map[string]int
}

func (c *sidecarReads) ReadFile(name string) ([]byte, error) {
	if strings.HasSuffix(name, trace.IndexSuffix) {
		c.mu.Lock()
		c.n[filepath.Base(name)]++
		c.mu.Unlock()
	}
	return c.FS.ReadFile(name)
}

func (c *sidecarReads) counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.n)
}

// TestViewPinsSidecars holds the pinning contract: however many
// uncached queries run on one View, each partition's sidecar is read at
// most once, and the answers stay those of the ground truth. A new View
// of the same generation reloads. Concurrent queries on a fresh view
// share its slots without a data race.
func TestViewPinsSidecars(t *testing.T) {
	c := genCorpus(31, 3, 2, 1200)
	dir := t.TempDir()
	c.write(t, dir, trace.FileStoreOptions{BlockRecords: 128})
	reads := &sidecarReads{FS: faultfs.OS{}, n: make(map[string]int)}
	fs, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: reads})
	if err != nil {
		t.Fatal(err)
	}

	var queries []Params
	for ue := uint32(0); ue < 40; ue++ {
		queries = append(queries, Params{UE: ueID(ue)})
	}
	day1 := trace.DayRange(1, 1)
	queries = append(queries,
		Params{TAC: u32(35000003), From: day1.MinTS, To: day1.MaxTS},
		Params{Sector: u32(17)},
		Params{UE: ueID(5), Aggregate: true},
	)
	run := func(eng *Engine, v *View, qs []Params) {
		t.Helper()
		for _, p := range qs {
			res, hit, err := eng.Query(context.Background(), v, p)
			if err != nil {
				t.Error(err)
				return
			}
			if hit {
				t.Errorf("query %s answered from the result cache", p.CacheKey())
			}
			want, _ := c.expected(p)
			if got, w := mustJSON(t, res.Rows), mustJSON(t, want); got != w {
				t.Errorf("query %s: rows differ from ground truth", p.CacheKey())
			}
		}
	}

	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	run(New(fs), v, queries)
	first := reads.counts()
	if len(first) == 0 {
		t.Fatal("no sidecar was read: the queries never used the index")
	}
	for name, n := range first {
		if n != 1 {
			t.Fatalf("%s read %d times on one view, want 1", name, n)
		}
	}

	// A new view pins nothing yet: the same queries reload every sidecar
	// they need, once more each.
	v2, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	run(New(fs), v2, queries)
	for name, n := range reads.counts() {
		if n != 2*first[name] {
			t.Fatalf("%s read %d times over two views, want %d", name, n, 2*first[name])
		}
	}

	v3, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(New(fs), v3, queries[w*10:w*10+10])
		}(w)
	}
	wg.Wait()
}
