package jobs

import (
	"container/list"
	"sync"
)

// lru is a bounded map that evicts its least recently used entry past
// max. The manager keeps two: finished wire results keyed by compute
// identity (see cacheKey and lintKey), shared by every hit and
// immutable once cached — a lint result there is also the report a
// delta-derived digest lints incrementally against; and recorded
// incremental states (engine results with state attached, O(Seeds ×
// MaxOrderLen) bytes each, so their bound is much tighter).
type lru[V any] struct {
	mu    sync.Mutex
	max   int
	byKey map[string]*list.Element
	order *list.List // front = most recently used
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, byKey: make(map[string]*list.Element), order: list.New()}
}

func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for c.order.Len() > c.max {
		el := c.order.Back()
		delete(c.byKey, el.Value.(*lruEntry[V]).key)
		c.order.Remove(el)
	}
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// each calls fn on every retained value, most recently used first.
func (c *lru[V]) each(fn func(V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*lruEntry[V]).val)
	}
}
