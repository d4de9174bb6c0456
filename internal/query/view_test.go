package query

import (
	"context"
	iofs "io/fs"
	"maps"
	"path/filepath"
	"sync"
	"testing"

	"telcolens/internal/faultfs"
	"telcolens/internal/trace"
)

// indexReads is a filesystem wrapper counting the positioned reads of
// each file: the reads that load a partition's index footer (two per
// load, the trailer then the footer), which scans never make.
type indexReads struct {
	faultfs.FS
	mu sync.Mutex
	n  map[string]int
}

func (c *indexReads) OpenFile(name string, flag int, perm iofs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countedFile{File: f, c: c, name: filepath.Base(name)}, nil
}

type countedFile struct {
	faultfs.File
	c    *indexReads
	name string
}

func (f *countedFile) ReadAt(p []byte, off int64) (int, error) {
	f.c.mu.Lock()
	f.c.n[f.name]++
	f.c.mu.Unlock()
	return f.File.ReadAt(p, off)
}

func (c *indexReads) counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.n)
}

// TestViewPinsSidecars holds the pinning contract for the index that
// was once a sidecar file and is now each partition's footer: however
// many uncached queries run on one View, each partition's footer is
// loaded at most once, and the answers stay those of the ground truth.
// A new View of the same generation reloads. Concurrent queries on a
// fresh view share its slots without a data race.
func TestViewPinsSidecars(t *testing.T) {
	c := genCorpus(31, 3, 2, 1200)
	dir := t.TempDir()
	c.write(t, dir, trace.FileStoreOptions{BlockRecords: 128})
	reads := &indexReads{FS: faultfs.OS{}, n: make(map[string]int)}
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
		t.Fatal("no index footer was read: the queries never used the index")
	}
	for name, n := range first {
		if n != 2 {
			t.Fatalf("%s's footer read with %d positioned reads on one view, want one load's 2", name, n)
		}
	}

	// A new view pins nothing yet: the same queries reload every footer
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
