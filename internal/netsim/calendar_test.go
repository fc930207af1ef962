package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// calendar is what the model test's program needs of a calendar; the kernel
// and the sorted-slice reference both provide it. A handle is the index of
// the timer in arming order.
type calendar interface {
	After(d time.Duration, fn func()) (handle int)
	Cancel(handle int)
	// Reset cancels handle h and arms fn after d as a new handle.
	Reset(h int, d time.Duration, fn func()) (handle int)
	Run(until time.Duration)
	Now() time.Duration
	Len() int
}

// refCalendar is the reference: pending timers in a slice kept sorted by
// (at, arming order), Cancel deletes by linear search.
type refCalendar struct {
	now      time.Duration
	armed    int
	pending  []refTimer
	canceled uint64
}

type refTimer struct {
	at     time.Duration
	handle int
	fn     func()
}

func (r *refCalendar) After(d time.Duration, fn func()) int {
	h := r.armed
	r.armed++
	r.pending = append(r.pending, refTimer{at: r.now + d, handle: h, fn: fn})
	sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].at < r.pending[j].at })
	return h
}

func (r *refCalendar) Cancel(h int) {
	for i, tm := range r.pending {
		if tm.handle == h {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			r.canceled++
			return
		}
	}
}

func (r *refCalendar) Reset(h int, d time.Duration, fn func()) int {
	r.Cancel(h)
	return r.After(d, fn)
}

func (r *refCalendar) Run(until time.Duration) {
	for len(r.pending) > 0 {
		tm := r.pending[0]
		if until > 0 && tm.at > until {
			r.now = until
			return
		}
		r.pending = r.pending[1:]
		r.now = tm.at
		tm.fn()
	}
}

func (r *refCalendar) Now() time.Duration { return r.now }
func (r *refCalendar) Len() int           { return len(r.pending) }

// envCalendar drives the kernel and checks the heap after every operation.
// Reset re-keys the live entry in place (Env.reset) unless cancelAfter asks
// for the Cancel + After it must equal.
type envCalendar struct {
	t           *testing.T
	env         *Env
	timers      []Timer // every handle ever issued, kept across fire, cancel and entry reuse
	cancelAfter bool
}

func (c *envCalendar) After(d time.Duration, fn func()) int {
	c.timers = append(c.timers, c.env.After(d, fn))
	c.check()
	return len(c.timers) - 1
}

func (c *envCalendar) Cancel(h int) {
	c.timers[h].Cancel()
	c.check()
}

func (c *envCalendar) Reset(h int, d time.Duration, fn func()) int {
	if c.cancelAfter {
		c.timers[h].Cancel()
		c.timers = append(c.timers, c.env.After(d, fn))
	} else {
		c.timers = append(c.timers, c.env.reset(c.timers[h], d, fn))
	}
	c.check()
	return len(c.timers) - 1
}

func (c *envCalendar) Run(until time.Duration) {
	c.env.Run(until)
	c.check()
}

func (c *envCalendar) Now() time.Duration { return c.env.Now() }
func (c *envCalendar) Len() int           { return len(c.env.cal) }

// check asserts the two structural invariants of the indexed heap: every
// entry knows its own position, and no entry is earlier than its parent.
func (c *envCalendar) check() {
	c.t.Helper()
	for i, en := range c.env.cal {
		if en.pos != i {
			c.t.Fatalf("entry at heap index %d records pos %d", i, en.pos)
		}
		if en.seq == 0 {
			c.t.Fatalf("recycled entry at heap index %d", i)
		}
		if i > 0 && entryLess(en, c.env.cal[(i-1)/2]) {
			c.t.Fatalf("heap order broken at index %d", i)
		}
	}
}

// calendarProgram is one seeded sequence of After / Cancel / Reset /
// Run(until) calls, issued from the top level and from inside firing
// callbacks. It returns a log of every firing and of the calendar length
// after each top-level step. Cancels and resets pick among all handles ever
// issued, so they hit pending timers, fired ones, ones already canceled, the
// timer being dispatched, and stale handles whose entry has since been
// reused.
func calendarProgram(seed int64, cal calendar) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	armed := 0
	cancelAny := func() {
		if armed > 0 {
			cal.Cancel(rng.Intn(armed))
		}
	}
	var arm func()
	arm = func() {
		h := armed
		armed++
		// Coarse delays make same-instant ties common; the occasional long
		// one plays the far-future timeout.
		d := time.Duration(rng.Intn(40)) * time.Millisecond
		if rng.Intn(8) == 0 {
			d = 10 * time.Second
		}
		fn := func() {
			log = append(log, fmt.Sprintf("fire %d at %v", h, cal.Now()))
			switch rng.Intn(8) {
			case 0:
				cal.Cancel(h) // the entry being dispatched
			case 1:
				cancelAny()
			case 2:
				arm() // reuses the entry that is firing
			case 3:
				arm()
				cancelAny()
				cancelAny()
			}
		}
		var got int
		if armed > 1 && rng.Intn(4) == 0 {
			got = cal.Reset(rng.Intn(armed-1), d, fn)
		} else {
			got = cal.After(d, fn)
		}
		if got != h {
			panic("handles are not issued in arming order")
		}
	}
	for step := 0; step < 600; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			arm()
		case r < 7:
			cancelAny()
			cancelAny()
		default:
			// Often stops short of the earliest entry, which must then
			// survive (and stay cancelable) for the next Run.
			cal.Run(cal.Now() + 1 + time.Duration(rng.Intn(25))*time.Millisecond)
		}
		log = append(log, fmt.Sprintf("step %d: %d pending at %v", step, cal.Len(), cal.Now()))
	}
	cal.Run(0)
	log = append(log, fmt.Sprintf("exhausted: %d pending at %v", cal.Len(), cal.Now()))
	return log
}

// TestCalendarMatchesSortedSliceModel runs the same seeded programs against
// the kernel's indexed heap with eager cancel and against the sorted-slice
// reference: same firings in the same order at the same instants, same
// number of live entries after every step, nothing left at exhaustion.
func TestCalendarMatchesSortedSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		ref := &refCalendar{}
		want := calendarProgram(seed, ref)
		kern := &envCalendar{t: t, env: NewEnv(seed)}
		got := calendarProgram(seed, kern)
		if !reflect.DeepEqual(got, want) {
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("seed %d diverges at log line %d:\n kernel: %s\n  model: %s", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: kernel log has %d lines, the model's %d", seed, len(got), len(want))
		}
		st := kern.env.Stats()
		if len(kern.env.cal) != 0 {
			t.Errorf("seed %d: %d entries left at exhaustion", seed, len(kern.env.cal))
		}
		if st.Canceled != ref.canceled || st.Canceled == 0 {
			t.Errorf("seed %d: Stats.Canceled = %d, the model removed %d", seed, st.Canceled, ref.canceled)
		}
		if fired := uint64(len(kern.timers)) - ref.canceled; st.Dispatched != fired {
			t.Errorf("seed %d: Dispatched = %d, want %d (armed minus canceled)", seed, st.Dispatched, fired)
		}
		if st.CalendarPeak > len(kern.timers) || st.CalendarPeak == 0 {
			t.Errorf("seed %d: CalendarPeak = %d with %d timers armed", seed, st.CalendarPeak, len(kern.timers))
		}
	}
}

// TestTimerResetMatchesCancelAfter runs the same seeded programs on two
// kernels, one re-keying a live timer in place and one canceling it and
// arming a fresh one: the same firings at the same instants in the same
// order, and the same kernel counters.
func TestTimerResetMatchesCancelAfter(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		viaCancel := &envCalendar{t: t, env: NewEnv(seed), cancelAfter: true}
		want := calendarProgram(seed, viaCancel)
		inPlace := &envCalendar{t: t, env: NewEnv(seed)}
		got := calendarProgram(seed, inPlace)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: in-place reset fires differently from Cancel + After", seed)
		}
		if g, w := inPlace.env.Stats(), viaCancel.env.Stats(); g != w {
			t.Errorf("seed %d: Stats %+v after in-place resets, %+v after Cancel + After", seed, g, w)
		}
	}
}

// BenchmarkTimerCancel arms a far-future timer and cancels it — what every
// timed wait that beats its deadline does. The entry goes straight back to
// the free list: no allocation, and the calendar never grows.
func BenchmarkTimerCancel(b *testing.B) {
	env := NewEnv(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.After(10*time.Second, fn).Cancel()
		if len(env.cal) != 0 {
			b.Fatalf("calendar holds %d entries after a cancel", len(env.cal))
		}
	}
}
