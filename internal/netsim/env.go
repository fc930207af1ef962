// Package netsim is a deterministic discrete-event simulation (DES) kernel
// plus the network primitives the MFC reproduction is built on: simulated
// processes with a virtual clock, one-shot events, FIFO resources, and a
// fluid-flow shared link with max-min fair bandwidth allocation.
//
// Execution model (lock-step): at most one thread of control — the driver
// inside Env.Run or exactly one simulated process — executes at any
// instant. The driver pops the earliest calendar entry, gives the matching
// process the execution token, and gets it back when that process blocks
// (sleep, wait, resource queue, link transfer) or ends, before advancing
// the clock. Identical seeds therefore produce identical runs.
//
// Who runs where. A process comes in two kinds that share one bookkeeping
// (Proc: a monotonic block-generation counter and a blocked flag):
//
//   - A goroutine process (Env.Go) runs ordinary sequential code on its own
//     goroutine; every block is a two-way channel handoff with the driver —
//     two scheduler switches, and worse across OS threads. It is for the
//     one cold, genuinely sequential actor — the MFC coordinator — and for
//     tests: a simulated run starts exactly one, so each Go simply
//     allocates a Proc and a goroutine.
//   - A stackless process (Env.Spawn) has no goroutine. Its body is a Task,
//     a state machine whose Step the driver calls in its own context when
//     the process starts and whenever its pending block resolves. Step runs
//     until it suspends the process through a Begin primitive (BeginSleep,
//     BeginWait, BeginWaitTimeout, Link.BeginTransfer[Timeout],
//     Resource.BeginAcquire[Timeout]) or finishes. Everything per request —
//     websim's Call pipeline, the sim clients' bursts, baselines and MFC-mr
//     connections, background/flash-crowd/cross-traffic visitors, the
//     resource monitor — is a task, and so is every arrival process that
//     spawns them (Poisson, burst, ramp, diurnal: a task that re-arms itself
//     with BeginSleep): neither a simulated HTTP request nor the loop that
//     generates it costs a goroutine or a handoff.
//
// There is one implementation of each primitive, the Begin form; the
// blocking form (Sleep, Wait, Transfer, Acquire…) is the Begin form plus
// parking the caller's goroutine. Likewise a goroutine process runs a whole
// task with Proc.Do: the task's blocks count on the caller's own generation
// counter, the goroutine parks once, and the driver hands the token back in
// the dispatch that finishes the task (one handoff per call instead of one
// per block, none if the task never blocks). websim.Server.Serve is that
// adapter over the one request pipeline. There is deliberately no switch
// that selects a goroutine-per-request path: a second implementation kept
// "for reference" is exactly what would drift. The oracle is bytes — the
// root package's golden fingerprints, pinned at the commit before the
// stackless path landed — and the invariants that make the conversion
// byte-identical by construction:
//
//  1. Calendar pushes are unchanged: every former process start or wake
//     entry is a start or wake entry pushed at the same point of the same
//     dispatch (SpawnAfter is GoAfter's timer-then-start pair; a timed wait
//     still pushes its timeout entry and cancels it), so times and seq
//     tie-breaks are identical. Nothing is "run inline now" to save an
//     entry.
//  2. Every Env.Rand draw happens at the same point of the same dispatch.
//  3. Release order is what the blocking code's defers produced (a release
//     pushes wake entries, so it is observable): see websim.Call.
//  4. A panic in a step surfaces from Run as `netsim: process %q panicked`
//     after every unfinished goroutine process has been ended, like a panic
//     in a goroutine body.
//
// When a block resolves, what used to follow it inside the blocking
// primitive — cancel the losing timeout entry, abort a flow that ran out of
// time, recycle the event, flow or queue node — runs in driver context
// first (Proc.resolve), then the process sees the token.
//
// The calendar is tuned for the dispatch cycle that dominates simulated
// experiments: entries are recycled through a free list instead of being
// reallocated per event, the binary heap is maintained in place on an
// index-addressed slice (no container/heap interface boxing), and the
// wake/yield token exchange of goroutine processes uses 1-buffered channels
// so each handoff costs a single blocking rendezvous rather than two. The
// calendar holds only live entries: each entry records its heap index, so
// Timer.Cancel removes and recycles it on the spot. Nearly every timed wait
// beats its deadline, and a deadline entry left in place until its time
// came would ride the heap for seconds of virtual time — a thousand dead
// entries under a flash crowd, deepening every sift. Env.Stats counts
// entries dispatched, timers canceled, goroutine handoffs, inline task
// steps, link waterfills and the calendar's high-water mark.
//
// Two further optimizations exploit the lock-step model:
//
//   - Batched link reallocation. A Link whose flow set changes does not
//     recompute its waterfill immediately; it registers on the environment's
//     dirty list and Run flushes every dirty link exactly once per simulated
//     instant, just before the clock advances (and before Run returns).
//     N synchronized flow arrivals at one timestamp cost one waterfill
//     instead of N. Flush order is registration order, never map iteration,
//     so runs stay byte-deterministic. No virtual time passes between a
//     flow change and its flush, so rates, byte accounting, and completion
//     instants are exactly those of eager recomputation. One narrower
//     behavior does differ from the pre-batching kernel: the completion
//     callback's calendar entry is pushed at the flush rather than
//     mid-instant, so its tie-break order against an entry independently
//     scheduled for the very same future nanosecond can change. The
//     reference "immediate" kernel — reallocate on every change — remains
//     selectable per environment (SetImmediateReallocate), and the
//     differential tests verify end-to-end result equality across seeds,
//     presets, and population bands.
//
//   - Recycled stackless processes. A dead stackless Proc is reused by the
//     next Spawn and keeps its monotonic block counter, so wakeups aimed at
//     a previous incarnation can never pass the generation guard.
package netsim

import (
	"math/rand"
	"time"
)

// Env is a simulation environment: a virtual clock and an event calendar.
// Create one with NewEnv; it is not safe for concurrent use by goroutines
// outside the simulation (simulated processes interact with it only while
// they hold the single execution token, which is safe by construction).
type Env struct {
	now    time.Duration
	cal    []*entry     // binary min-heap ordered by (at, seq)
	free   []*entry     // recycled calendar entries
	evfree []*Event     // recycled events (see FreeEvent)
	wfree  [][]evWaiter // recycled waiter slices (capacity only)
	dirty  []*Link      // links awaiting the end-of-instant waterfill flush
	live   []*Proc      // goroutine procs whose goroutine has not finished
	tfree  []*Proc      // dead stackless procs, LIFO
	flfree []*Flow      // recycled link flows (see freeFlow)
	wtfree []*waiter    // recycled resource waiters
	seq    uint64
	yield  chan struct{}
	rng    *rand.Rand
	err    any // panic value recovered from a process
	stats  Stats

	// immediate selects the reference kernel: every Link flow change
	// recomputes the waterfill eagerly instead of once per instant. The
	// differential tests run both kernels and require identical output.
	immediate bool
}

// NewEnv returns an environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		yield: make(chan struct{}, 1),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// SetImmediateReallocate switches between the batched kernel (default,
// false) and the reference immediate-reallocate kernel. Call it before the
// simulation runs; switching to immediate mid-run flushes any pending
// recomputations first so no link is left with stale rates.
func (e *Env) SetImmediateReallocate(on bool) {
	if on {
		e.flushDirty()
	}
	e.immediate = on
}

// flushDirty recomputes the waterfill of every dirty link, in the order the
// links became dirty within the instant. reallocate changes no flow set, so
// a flush cannot re-dirty a link.
func (e *Env) flushDirty() {
	e.stats.Flushes += uint64(len(e.dirty))
	for i, l := range e.dirty {
		e.dirty[i] = nil
		l.dirty = false
		l.reallocate()
	}
	e.dirty = e.dirty[:0]
}

// Now returns the current virtual time (time since simulation start).
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source. Only simulated
// processes and callbacks may use it.
func (e *Env) Rand() *rand.Rand { return e.rng }

// entryKind says what dispatching a calendar entry does.
type entryKind uint8

const (
	entFn    entryKind = iota // run fn in driver context
	entWake                   // resume proc, if it is still blocked in block #target
	entStart                  // give proc the token for the first time
	entSpawn                  // SpawnAfter's timer: push proc's start entry now
)

// entry is one calendar item. Entries are pooled: once popped for dispatch
// or removed by Timer.Cancel they return to Env.free and are reused by
// later pushes. A Timer therefore validates its saved seq before acting on
// the entry it points to.
type entry struct {
	at     time.Duration
	seq    uint64
	proc   *Proc
	target uint64 // entWake: the block generation this wakeup is for
	fn     func() // entFn
	pos    int    // index in Env.cal while scheduled
	kind   entryKind
}

func entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// newEntry takes an entry from the free list (or allocates one) with all
// scheduling fields cleared.
func (e *Env) newEntry() *entry {
	if n := len(e.free); n > 0 {
		en := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return en
	}
	return &entry{}
}

// recycle clears an entry that has left the heap and returns it to the free
// list. Clearing seq invalidates any Timer still holding the entry (timer
// seqs are never 0).
func (e *Env) recycle(en *entry) {
	*en = entry{}
	e.free = append(e.free, en)
}

// calPush inserts an entry into the heap.
func (e *Env) calPush(en *entry) {
	i := len(e.cal)
	e.cal = append(e.cal, en)
	if i >= e.stats.CalendarPeak {
		e.stats.CalendarPeak = i + 1
	}
	e.siftUp(en, i)
}

// calRemove takes the entry at heap index i out of the calendar: the last
// entry moves into the hole and sifts whichever way restores the order.
// Popping is calRemove(0); a canceled far-future timeout sits at or near a
// leaf, so its removal moves next to nothing.
func (e *Env) calRemove(i int) {
	n := len(e.cal) - 1
	last := e.cal[n]
	e.cal[n] = nil
	e.cal = e.cal[:n]
	if i == n {
		return
	}
	if i > 0 && entryLess(last, e.cal[(i-1)/2]) {
		e.siftUp(last, i)
	} else {
		e.siftDown(last, i)
	}
}

// siftUp places en, which belongs at heap index i or above it, moving
// later ancestors down into the hole.
func (e *Env) siftUp(en *entry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		up := e.cal[parent]
		if !entryLess(en, up) {
			break
		}
		e.cal[i], up.pos = up, i
		i = parent
	}
	e.cal[i], en.pos = en, i
}

// siftDown places en, which belongs at heap index i or below it, moving
// earlier children up into the hole.
func (e *Env) siftDown(en *entry, i int) {
	n := len(e.cal)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && entryLess(e.cal[r], e.cal[l]) {
			m = r
		}
		down := e.cal[m]
		if !entryLess(down, en) {
			break
		}
		e.cal[i], down.pos = down, i
		i = m
	}
	e.cal[i], en.pos = en, i
}

func (e *Env) push(en *entry) *entry {
	if en.at < e.now {
		en.at = e.now
	}
	e.seq++
	en.seq = e.seq
	e.calPush(en)
	return en
}

// pushWake schedules a wakeup for p at time `at`, valid only for block
// generation `target`. The wakeup is delivered only if, when popped, p is
// still suspended in that same block; otherwise it is dropped. This makes
// racing wakeup sources (event trigger vs. timeout) harmless.
func (e *Env) pushWake(at time.Duration, p *Proc, target uint64) *entry {
	en := e.pushProc(entWake, at, p)
	en.target = target
	return en
}

// pushProc schedules a start, spawn or wake entry for p.
func (e *Env) pushProc(kind entryKind, at time.Duration, p *Proc) *entry {
	en := e.newEntry()
	en.at = at
	en.kind = kind
	en.proc = p
	return e.push(en)
}

// Stats are the kernel's own counters since NewEnv: plain fields bumped on
// the dispatch path, cheap enough to be always on.
type Stats struct {
	// Dispatched counts calendar entries popped and acted on (dropped stale
	// wakeups included).
	Dispatched uint64
	// Canceled counts timers removed from the calendar before firing: the
	// timeouts of timed waits that the event won, canceled After/At timers.
	Canceled uint64
	// Handoffs counts times the driver gave the execution token to a
	// process goroutine and waited for it back: two channel operations and
	// two scheduler switches each — the cost stackless processes avoid.
	Handoffs uint64
	// Inline counts task steps the driver ran in its own context.
	Inline uint64
	// Flushes counts end-of-instant link waterfills.
	Flushes uint64
	// CalendarPeak is the largest number of live entries the calendar held
	// (a canceled timer leaves it at once).
	CalendarPeak int
}

// Stats returns the kernel counters.
func (e *Env) Stats() Stats { return e.stats }

// Timer is a handle to a scheduled callback; Cancel prevents a pending
// callback from running. The zero Timer is valid and cancels nothing.
type Timer struct {
	env *Env
	en  *entry
	seq uint64
}

// timerFor returns the handle for a scheduled entry.
func (e *Env) timerFor(en *entry) Timer { return Timer{env: e, en: en, seq: en.seq} }

// Cancel takes a pending timer off the calendar and recycles its entry, so
// it neither fires nor extends virtual time. Canceling an already-fired,
// already-canceled, or zero timer is a no-op: once the entry has been
// recycled its seq no longer matches the timer's, and that includes the
// entry being dispatched right now (Run recycles before it dispatches).
func (t Timer) Cancel() {
	if t.en == nil || t.en.seq != t.seq {
		return
	}
	e := t.env
	e.calRemove(t.en.pos)
	e.recycle(t.en)
	e.stats.Canceled++
}

// After schedules fn to run in driver context at Now()+d. The callback must
// not block; it may schedule further work, trigger events, and start
// processes.
func (e *Env) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	en := e.newEntry()
	en.at = e.now + d
	en.fn = fn
	return e.timerFor(e.push(en))
}

// At schedules fn to run in driver context at the absolute virtual time
// `at` (clamped to now if already past) — the trigger primitive the
// scenario/chaos layer uses to fire faults at fixed points of simulated
// time. Like After, the callback must not block.
func (e *Env) At(at time.Duration, fn func()) Timer {
	return e.After(at-e.now, fn)
}

// Run drives the simulation until the calendar is exhausted or the virtual
// clock would pass `until` (use a non-positive until to run to exhaustion).
// It panics if a simulated process panicked, re-raising the value with
// context after ending every goroutine process that is still parked. Run
// returns the virtual time at which it stopped.
//
// Run owns the end-of-instant flush: whenever the clock is about to leave
// the current instant — the next entry is later than now, the calendar is
// empty, or the until cutoff is reached — every dirty link recomputes its
// waterfill once, at the instant all of its flow changes happened. A flush
// may schedule new completion entries at or after now; the loop re-examines
// the calendar afterwards, so those dispatch in their proper place.
func (e *Env) Run(until time.Duration) time.Duration {
	for {
		if len(e.cal) == 0 {
			if len(e.dirty) == 0 {
				break
			}
			e.flushDirty()
			continue
		}
		if len(e.dirty) > 0 && e.cal[0].at > e.now {
			e.flushDirty()
			continue // the flush may have pushed earlier entries
		}
		en := e.cal[0]
		if until > 0 && en.at > until {
			e.now = until // en stays for a later Run
			return e.now
		}
		e.calRemove(0)
		e.now = en.at
		// Copy the dispatch fields and recycle before dispatching: the
		// process or callback may push new entries that reuse this one.
		kind, proc, target, fn := en.kind, en.proc, en.target, en.fn
		e.recycle(en)
		e.stats.Dispatched++
		switch kind {
		case entFn:
			fn()
		case entSpawn:
			e.pushProc(entStart, e.now, proc)
		case entStart:
			if proc.dead {
				continue
			}
			e.resume(proc)
		case entWake:
			if proc.dead || !proc.blockedNow || proc.blocks != target {
				continue // stale wakeup; drop
			}
			proc.blockedNow = false
			proc.ok = true
			if proc.pend != pendNone {
				proc.resolve()
			}
			e.resume(proc)
		}
		if e.err != nil {
			// End every unfinished goroutine process before re-raising, so a
			// recovered simulation failure (campaign jobs recover per-site
			// panics) leaks neither goroutines nor the Env they reference.
			e.endLive()
			panic(e.err)
		}
	}
	return e.now
}

// Event is a one-shot condition processes can wait on. The zero value is
// unusable; create events with NewEvent.
type Event struct {
	env       *Env
	triggered bool
	waiters   []evWaiter
}

// evWaiter pins the waiting process to the block generation in which it
// registered, so a trigger that fires after the process has moved on (e.g.
// past a WaitTimeout) cannot disturb its later blocks.
type evWaiter struct {
	proc   *Proc
	target uint64
}

// NewEvent returns an untriggered event bound to e. Events come from a free
// list fed by FreeEvent; Sleep-style waits plus the pooled calendar already
// run allocation-free, and recycling events (the other per-wait allocation)
// keeps Resource and Link waits at zero steady-state allocation too.
func (e *Env) NewEvent() *Event {
	if n := len(e.evfree); n > 0 {
		ev := e.evfree[n-1]
		e.evfree[n-1] = nil
		e.evfree = e.evfree[:n-1]
		return ev
	}
	return &Event{env: e}
}

// FreeEvent returns ev to the environment's free list for reuse by a later
// NewEvent. The caller asserts that no process will touch ev again: every
// waiter has returned from its Wait, and no other reference escaped (events
// handed out by StartFlow, for example, must not be freed by the Link).
// Stale evWaiter entries from an abandoned WaitTimeout are harmless — they
// are cleared here, and their wakeups were never scheduled.
func (e *Env) FreeEvent(ev *Event) {
	if ev == nil {
		return
	}
	if cap(ev.waiters) > 0 {
		e.wfree = append(e.wfree, ev.waiters[:0])
	}
	*ev = Event{env: e}
	e.evfree = append(e.evfree, ev)
}

// newFlow takes a Flow from the free list (or allocates one). Fields are
// zeroed at free time; Link.start sets every live field.
func (e *Env) newFlow() *Flow {
	if n := len(e.flfree); n > 0 {
		fl := e.flfree[n-1]
		e.flfree[n-1] = nil
		e.flfree = e.flfree[:n-1]
		return fl
	}
	return &Flow{}
}

// freeFlow recycles a retired flow. The caller asserts the flow is off its
// link's flow list and no other reference escaped — Transfer-style waits
// qualify; flows handed out via StartFlow are never recycled because the
// caller keeps the completion event.
func (e *Env) freeFlow(fl *Flow) {
	*fl = Flow{}
	e.flfree = append(e.flfree, fl)
}

// newWaiter and freeWaiter recycle Resource queue nodes the same way.
func (e *Env) newWaiter() *waiter {
	if n := len(e.wtfree); n > 0 {
		w := e.wtfree[n-1]
		e.wtfree[n-1] = nil
		e.wtfree = e.wtfree[:n-1]
		return w
	}
	return &waiter{}
}

func (e *Env) freeWaiter(w *waiter) {
	*w = waiter{}
	e.wtfree = append(e.wtfree, w)
}

// addWaiter registers a waiter, drawing the backing slice from the recycled
// pool on first use.
func (ev *Event) addWaiter(p *Proc, target uint64) {
	if ev.waiters == nil {
		if n := len(ev.env.wfree); n > 0 {
			ev.waiters = ev.env.wfree[n-1]
			ev.env.wfree[n-1] = nil
			ev.env.wfree = ev.env.wfree[:n-1]
		}
	}
	ev.waiters = append(ev.waiters, evWaiter{proc: p, target: target})
}

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Trigger fires the event, waking all current waiters at the current time in
// FIFO order. Triggering twice is a no-op. It may be called from a process
// or a driver callback.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	for _, w := range ev.waiters {
		ev.env.pushWake(ev.env.now, w.proc, w.target)
	}
	if cap(ev.waiters) > 0 {
		ev.env.wfree = append(ev.env.wfree, ev.waiters[:0])
	}
	ev.waiters = nil
}
