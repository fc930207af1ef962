package websim

import "container/list"

// lru is a byte-capacity LRU cache keyed by URL. It stores presence only —
// the simulator cares whether an access hits, not the data.
type lru struct {
	capBytes  int64
	usedBytes int64
	order     *list.List // front = most recent; values are *lruEntry
	items     map[string]*list.Element
}

type lruEntry struct {
	key  string
	size int64
}

func newLRU(capBytes int64) *lru {
	return &lru{
		capBytes: capBytes,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

func (c *lru) enabled() bool { return c.capBytes > 0 }

// get reports whether key is cached, updating its recency on a hit.
func (c *lru) get(key string) bool {
	if !c.enabled() {
		return false
	}
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return true
	}
	return false
}

// put inserts key with the given size, evicting least-recently-used entries
// to fit. Objects larger than the whole cache are not cached.
func (c *lru) put(key string, size int64) {
	if !c.enabled() || size > c.capBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.usedBytes+size > c.capBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*lruEntry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.usedBytes -= ent.size
	}
	el := c.order.PushFront(&lruEntry{key: key, size: size})
	c.items[key] = el
	c.usedBytes += size
}
