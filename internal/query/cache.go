package query

import (
	"container/list"
	"sync"
)

// The result cache holds at most defaultCacheEntries results and
// defaultCacheRows rows across them. Each entry is charged its row
// count: a Row is about 80 bytes, so the row budget caps what the cache
// retains near 10 MB whatever limits the queries ask for (128 results
// at MaxLimit would otherwise pin about 1 GB). Repeated dashboard-style
// queries hit it, anything long-tail evicts quickly.
const (
	defaultCacheEntries = 128
	defaultCacheRows    = defaultCacheEntries * DefaultLimit
)

// CacheStats reports result-cache activity.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// lruCache is a small mutex-guarded LRU of query results, bounded both
// in entries and in total rows. Values are shared with callers and must
// be treated as immutable.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	maxRows int
	rows    int        // rows held across all entries
	order   *list.List // front = most recent; values are *lruEntry
	entries map[string]*list.Element
	hits    int64
	misses  int64
}

type lruEntry struct {
	key string
	res *Result
}

func newLRUCache(capacity, maxRows int) *lruCache {
	return &lruCache{
		cap:     capacity,
		maxRows: maxRows,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached result for key, or nil.
func (c *lruCache) get(key string) *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).res
}

// put stores a result, evicting least recently used entries while the
// cache is over its entry cap or row budget. A result larger than the
// whole row budget is not stored.
func (c *lruCache) put(key string, res *Result) {
	n := len(res.Rows)
	if n > c.maxRows {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*lruEntry)
		c.rows += n - len(e.res.Rows)
		e.res = res
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&lruEntry{key: key, res: res})
		c.rows += n
	}
	for c.order.Len() > c.cap || c.rows > c.maxRows {
		oldest := c.order.Remove(c.order.Back()).(*lruEntry)
		delete(c.entries, oldest.key)
		c.rows -= len(oldest.res.Rows)
	}
}

// purge drops every entry (counters survive).
func (c *lruCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.entries)
	c.rows = 0
}

// stats snapshots the counters.
func (c *lruCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}
