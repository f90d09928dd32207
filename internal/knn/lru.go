package knn

import (
	"sync"
	"sync/atomic"
)

// LRU is a bounded, concurrency-safe cache of retrieval results, keyed by
// an opaque uint64 (callers pack whatever identifies a repeated query —
// the serving layer uses seed-item and k). It exists for the /v1/similar
// hot path: production matching traffic is heavily head-skewed, so a few
// thousand entries absorb a large fraction of full-matrix scans.
//
// Values are returned by reference: a cached []Result is shared between
// all readers and must be treated as read-only.
type LRU struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*lruNode
	head    *lruNode // most recently used
	tail    *lruNode // least recently used, evicted first

	hits   atomic.Uint64
	misses atomic.Uint64
}

type lruNode struct {
	key        uint64
	val        []Result
	prev, next *lruNode
}

// NewLRU returns a cache bounded to capacity entries (minimum 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, entries: make(map[uint64]*lruNode, capacity)}
}

// Get returns the cached results for key and whether they were present,
// promoting the entry to most-recently-used. The returned slice is shared
// and read-only.
func (c *LRU) Get(key uint64) ([]Result, bool) {
	c.mu.Lock()
	n, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.moveToFront(n)
	val := n.val
	c.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

// Put stores val under key as most-recently-used, evicting the
// least-recently-used entry if the cache is full. Storing an existing key
// overwrites its value.
func (c *LRU) Put(key uint64, val []Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries[key]; ok {
		n.val = val
		c.moveToFront(n)
		return
	}
	if len(c.entries) >= c.cap {
		evict := c.tail
		c.unlink(evict)
		delete(c.entries, evict.key)
	}
	n := &lruNode{key: key, val: val}
	c.entries[key] = n
	c.pushFront(n)
}

// Len returns the current number of entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits returns the cumulative Get hit count.
func (c *LRU) Hits() uint64 { return c.hits.Load() }

// Misses returns the cumulative Get miss count.
func (c *LRU) Misses() uint64 { return c.misses.Load() }

// moveToFront promotes an existing node to head. Caller holds mu.
func (c *LRU) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// unlink removes n from the list. Caller holds mu.
func (c *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushFront inserts n at head. Caller holds mu.
func (c *LRU) pushFront(n *lruNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}
