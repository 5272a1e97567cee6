package engine

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lruCache is a size-bounded, mutex-guarded LRU over score-set entries.
// Capacity is counted in entries, not bytes: a cached score set holds
// ~92·K bytes (see Options.CacheEntries). The resident entries'
// score-set bytes are summed as they come and go.
type lruCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	size      int // Σ entry.size over the resident entries
	evictions atomic.Uint64
}

type lruItem struct {
	key string
	val *entry
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the entry for key, marking it most recently used.
func (c *lruCache) get(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// add inserts (or refreshes) key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache) add(key string, v *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.size += v.size
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem)
		c.size -= it.val.size
		it.val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, val: v})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Remove(c.ll.Back()).(*lruItem)
		delete(c.items, oldest.key)
		c.size -= oldest.val.size
		c.evictions.Add(1)
	}
}

// sweep removes every resident entry whose key stale reports true and
// returns how many were removed. Swept entries are not counted as
// evictions: eviction is capacity pressure, sweeping is invalidation
// (stale corpus epochs after a mutation).
func (c *lruCache) sweep(stale func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		it := el.Value.(*lruItem)
		if stale(it.key) {
			c.ll.Remove(el)
			delete(c.items, it.key)
			c.size -= it.val.size
			n++
		}
		el = next
	}
	return n
}

// contains reports whether key is resident without promoting it — a pure
// peek for callers (Engine.Explain) that must not perturb recency order.
func (c *lruCache) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// bytes returns the summed score-set bytes of the resident entries.
func (c *lruCache) bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

func (c *lruCache) evicted() uint64 { return c.evictions.Load() }
