// Package clock is the campaign layer's one source of time. Everything
// that schedules, ages or stamps on wall time — lease staleness, the
// keep-alive loop, idle backoff, the control plane's reaper, span stamps,
// progress rates — takes a Clock, so time is an input and a test can drive
// hours of protocol in microseconds (clocktest). Production has one: Real.
package clock

import "time"

// Clock is the time surface campaign code uses.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) *Timer
	NewTicker(d time.Duration) *Ticker
}

// Timer delivers one time on C after its duration, like time.Timer; Stop
// reports whether it kept the timer from firing.
type Timer struct {
	C    <-chan time.Time
	Stop func() bool
}

// Ticker delivers the time on C once per period until Stop, dropping
// ticks a slow receiver has not consumed, like time.Ticker.
type Ticker struct {
	C    <-chan time.Time
	Stop func()
}

// Real is wall time: the package time, unadorned.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, Stop: t.Stop}
}

func (realClock) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, Stop: t.Stop}
}

// Or returns c, or Real when c is nil: the zero value of a Clock field in
// an options struct means real time.
func Or(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}
