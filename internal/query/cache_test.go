package query

import (
	"context"
	"strconv"
	"testing"

	"telcolens/internal/trace"
)

// TestCacheRowBudget fills the engine-sized cache with MaxLimit-row
// results: the row budget, not the entry cap, must bound what it
// retains, evicting least recently used entries first.
func TestCacheRowBudget(t *testing.T) {
	c := newLRUCache(defaultCacheEntries, defaultCacheRows)
	big := &Result{Rows: make([]Row, MaxLimit)}
	for i := 0; i < defaultCacheEntries; i++ {
		c.put("big"+strconv.Itoa(i), big)
		if c.rows > defaultCacheRows {
			t.Fatalf("after %d puts the cache holds %d rows, budget %d", i+1, c.rows, defaultCacheRows)
		}
	}
	last := "big" + strconv.Itoa(defaultCacheEntries-1)
	if got := c.stats().Entries; got != defaultCacheRows/MaxLimit {
		t.Fatalf("%d MaxLimit results cached, want %d", got, defaultCacheRows/MaxLimit)
	}
	if c.get(last) != big || c.get("big0") != nil {
		t.Fatal("row-budget eviction did not drop the least recently used entry")
	}

	// Small results fill in beside the big one up to the entry cap,
	// and the accounting stays exact through replacement and eviction.
	small := &Result{Rows: make([]Row, 100)}
	for i := 0; i < 2*defaultCacheEntries; i++ {
		c.put("small"+strconv.Itoa(i), small)
	}
	c.put("small"+strconv.Itoa(2*defaultCacheEntries-1), &Result{Rows: make([]Row, 7)})
	want := 0
	for _, el := range c.entries {
		want += len(el.Value.(*lruEntry).res.Rows)
	}
	if c.rows != want || len(c.entries) != defaultCacheEntries {
		t.Fatalf("rows %d (counted %d), entries %d", c.rows, want, len(c.entries))
	}
	c.purge()
	if c.rows != 0 || c.stats().Entries != 0 {
		t.Fatalf("purge left rows %d, entries %d", c.rows, c.stats().Entries)
	}
}

// A result larger than the whole row budget is answered but never
// cached: every repeat recomputes it, and it evicts nothing.
func TestQueryOverBudgetNotCached(t *testing.T) {
	c := genCorpus(5, 1, 1, 50)
	fs := c.write(t, t.TempDir(), trace.FileStoreOptions{BlockRecords: 64})
	eng := New(fs)
	eng.cache = newLRUCache(defaultCacheEntries, 10)
	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	small := Params{Limit: 10}
	if _, _, err := eng.Query(ctx, v, small); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, hit, err := eng.Query(ctx, v, Params{})
		if err != nil || hit || len(r.Rows) != 50 {
			t.Fatalf("query %d: hit=%v rows=%d err=%v", i, hit, len(r.Rows), err)
		}
	}
	if _, hit, _ := eng.Query(ctx, v, small); !hit {
		t.Fatal("an over-budget result evicted the cached small one")
	}
	if cs := eng.CacheStats(); cs.Entries != 1 {
		t.Fatalf("cache holds %d entries, want 1", cs.Entries)
	}
}
