package campaign

import (
	"hash/fnv"
	"math/rand"
	"time"
)

// Backoff paces an idle poller: a worker whose every pending shard is
// leased by live peers, or whose control plane has no range to grant,
// must wait for churn. A fixed interval makes a fleet of waiting workers
// beat on the store directory (or the control plane) in lockstep — they
// all saw the same "nothing free" state at the same moment, so they all
// come back at the same moment. Instead the delay doubles from base up to
// a cap, and every sleep is drawn uniformly from [d/2, d), so the herd
// decorrelates even when all its members went idle together. Any
// successful claim resets the delay to base: churn observed means more
// churn is likely soon.
type Backoff struct {
	base, max, cur time.Duration
	rng            *rand.Rand
}

// NewBackoff builds a Backoff with the given base delay, capped at
// 16×base. The seed string (the worker's owner id) decorrelates jitter
// across a fleet whose processes may share a clock-derived PRNG seed.
func NewBackoff(base time.Duration, seed string) *Backoff {
	h := fnv.New64a()
	h.Write([]byte(seed))
	return &Backoff{base: base, max: 16 * base, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// Next returns the next idle sleep: ~base on the first call after a
// reset, doubling per call up to the cap, jittered over [d/2, d).
func (b *Backoff) Next() time.Duration {
	if b.cur == 0 {
		b.cur = b.base
	} else if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	half := b.cur / 2
	if half <= 0 {
		return b.cur
	}
	return half + time.Duration(b.rng.Int63n(int64(half)))
}

// Reset drops the delay back to base after productive work.
func (b *Backoff) Reset() { b.cur = 0 }
