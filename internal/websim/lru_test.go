package websim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLRUBasicHitMiss(t *testing.T) {
	c := newLRU(100)
	if c.get("a") {
		t.Error("hit on empty cache")
	}
	c.put("a", 40)
	if !c.get("a") {
		t.Error("miss after put")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := newLRU(100)
	c.put("a", 40)
	c.put("b", 40)
	c.get("a")     // refresh a
	c.put("c", 40) // evicts b
	if !c.get("a") {
		t.Error("a evicted despite recent use")
	}
	if c.get("b") {
		t.Error("b survived eviction")
	}
	if !c.get("c") {
		t.Error("c missing")
	}
}

func TestLRUOversizeObjectNotCached(t *testing.T) {
	c := newLRU(100)
	c.put("huge", 200)
	if c.get("huge") {
		t.Error("object larger than the cache was admitted")
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRU(0)
	c.put("a", 1)
	if c.get("a") {
		t.Error("disabled cache returned a hit")
	}
	if c.enabled() {
		t.Error("zero-capacity cache reports enabled")
	}
}

func TestLRUDuplicatePutRefreshes(t *testing.T) {
	c := newLRU(100)
	c.put("a", 40)
	c.put("b", 40)
	c.put("a", 40) // refresh, no size change
	c.put("c", 40) // must evict b, not a
	if !c.get("a") || c.get("b") {
		t.Error("duplicate put did not refresh recency")
	}
	if c.usedBytes != 80 {
		t.Errorf("usedBytes = %d, want 80", c.usedBytes)
	}
}

// Property: usedBytes never exceeds capacity.
func TestLRUCapacityInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(1 + rng.Intn(1000))
		c := newLRU(capacity)
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(50))
			if rng.Intn(2) == 0 {
				c.put(key, int64(1+rng.Intn(300)))
			} else {
				c.get(key)
			}
			if c.usedBytes > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
