// Package clocktest is the fake clock.Clock: time stands still until a test
// moves it. Import it from _test.go files only.
package clocktest

import (
	"slices"
	"sync"
	"time"

	"mfc/internal/clock"
)

// Clock is a manually driven clock.Clock, safe for concurrent use. Advance
// moves time forward and fires every timer and ticker that comes due, in
// time order; Set steps the wall reading (an NTP jump, either direction)
// without firing anything. Channels hold one pending time and drop the
// rest, like the time package's.
type Clock struct {
	mu      sync.Mutex
	armed   *sync.Cond // signalled whenever a timer or ticker is armed
	now     time.Time
	waiters []*waiter
}

// waiter is one armed timer (period 0) or ticker.
type waiter struct {
	at     time.Time
	period time.Duration
	c      chan time.Time
}

var _ clock.Clock = (*Clock)(nil)

// New returns a clock reading start.
func New(start time.Time) *Clock {
	c := &Clock{now: start}
	c.armed = sync.NewCond(&c.mu)
	return c
}

func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTimer arms a timer d from now; d <= 0 fires at once.
func (c *Clock) NewTimer(d time.Duration) *clock.Timer {
	w := c.arm(d, 0)
	return &clock.Timer{C: w.c, Stop: func() bool { return c.disarm(w) }}
}

// NewTicker arms a ticker of period d (which must be positive).
func (c *Clock) NewTicker(d time.Duration) *clock.Ticker {
	if d <= 0 {
		panic("clocktest: non-positive ticker period")
	}
	w := c.arm(d, d)
	return &clock.Ticker{C: w.c, Stop: func() { c.disarm(w) }}
}

func (c *Clock) arm(d, period time.Duration) *waiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &waiter{at: c.now.Add(d), period: period, c: make(chan time.Time, 1)}
	if d <= 0 {
		w.c <- c.now
		return w
	}
	c.waiters = append(c.waiters, w)
	c.armed.Broadcast()
	return w
}

// disarm reports whether w was still armed.
func (c *Clock) disarm(w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remove(w)
}

func (c *Clock) remove(w *waiter) bool {
	i := slices.Index(c.waiters, w)
	if i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
	}
	return i >= 0
}

// Advance moves time forward by d, firing what comes due on the way: each
// timer or ticker sees Now equal to its own deadline when it fires.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	target := c.now.Add(d)
	for {
		var next *waiter
		for _, w := range c.waiters {
			if !w.at.After(target) && (next == nil || w.at.Before(next.at)) {
				next = w
			}
		}
		if next == nil {
			break
		}
		c.now = next.at
		select {
		case next.c <- c.now:
		default: // the receiver is behind: drop the tick
		}
		if next.period > 0 {
			next.at = next.at.Add(next.period)
		} else {
			c.remove(next)
		}
	}
	c.now = target
}

// Set steps the reading to t, forwards or backwards. Nothing fires: armed
// timers and tickers keep the time they had left, as they do on the
// monotonic clock when the wall clock is stepped.
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delta := t.Sub(c.now)
	for _, w := range c.waiters {
		w.at = w.at.Add(delta)
	}
	c.now = t
}

// BlockUntil returns once at least n timers and tickers are armed: how a
// test knows the goroutine it is driving has reached its wait.
func (c *Clock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.waiters) < n {
		c.armed.Wait()
	}
}
