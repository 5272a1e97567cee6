package engine

import (
	"container/list"
	"strconv"
	"strings"
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
		c.remove(c.ll.Back())
		c.evictions.Add(1)
	}
}

// restamp carries the cache into the epoch after from, under one hold
// of the lock. A key already of the next epoch stays. A key of epoch
// from ("e=<from>;…") whose entry survive accepts is re-keyed to the
// same key under the next epoch, in place, unless that key is already
// resident: then the resident entry stays and this one goes. Every other
// entry is removed (swept); removals are not counted as evictions, which
// are capacity pressure, not invalidation.
func (c *lruCache) restamp(from uint64, survive func(*entry) bool) (kept, swept int) {
	oldPrefix := "e=" + strconv.FormatUint(from, 10) + ";"
	newPrefix := "e=" + strconv.FormatUint(from+1, 10) + ";"
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		it := el.Value.(*lruItem)
		if strings.HasPrefix(it.key, newPrefix) {
			continue
		}
		if strings.HasPrefix(it.key, oldPrefix) && survive(it.val) {
			key := newPrefix + it.key[len(oldPrefix):]
			if _, resident := c.items[key]; !resident {
				delete(c.items, it.key)
				it.key = key
				c.items[key] = el
				kept++
				continue
			}
		}
		c.remove(el)
		swept++
	}
	return kept, swept
}

// remove unlinks el; the caller holds the lock.
func (c *lruCache) remove(el *list.Element) {
	it := c.ll.Remove(el).(*lruItem)
	delete(c.items, it.key)
	c.size -= it.val.size
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
