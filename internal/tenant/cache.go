package tenant

import (
	"container/list"
	"sync"
)

// estCache is the per-tenant LRU estimate cache — the analogue of a DBMS
// plan cache. Keys are query.Key strings (join bits + IEEE-754 bound
// patterns), so a hit returns the bit-identical estimate the model would
// recompute.
//
// Correctness under retraining: every retrain flushes the cache, before
// its execute is acked, and bumps a generation counter. An estimate that
// was being computed while a retrain landed carries the generation it
// started under, and put drops it if the generation moved — a
// pre-retrain answer can never be cached as a post-retrain one.
type estCache struct {
	mu     sync.Mutex
	cap    int
	gen    uint64
	lru    *list.List // front = most recently used
	byKey  map[string]*list.Element
	hits   int64
	misses int64
}

type cacheEnt struct {
	key string
	est float64
}

func newEstCache(capacity int) *estCache {
	return &estCache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// generation snapshots the flush counter; pass it to put.
func (c *estCache) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

func (c *estCache) get(key string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEnt).est, true
}

// put inserts the estimate computed under generation gen; it is dropped
// when a flush happened in between (the model has retrained since).
func (c *estCache) put(gen uint64, key string, est float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEnt).est = est
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEnt{key: key, est: est})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEnt).key)
	}
}

// flush empties the cache and advances the generation, invalidating any
// in-flight put.
func (c *estCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.lru.Init()
	c.byKey = make(map[string]*list.Element, c.cap)
}

func (c *estCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len()
}
