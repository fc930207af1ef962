package netsim

import (
	"fmt"
	"time"
)

// Resource is a counting semaphore with a FIFO wait queue, used to model
// serialized or pool-limited server components (worker threads, database
// connection pools, a single disk arm).
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	queue    []*waiter // FIFO from head; canceled waiters linger until a release skips them
	head     int
	live     int // queued waiters not canceled

	// metrics
	acquired   uint64
	maxQueue   int
	busyTime   time.Duration
	lastChange time.Duration
}

type waiter struct {
	res      *Resource
	ev       *Event
	canceled bool
}

// cancel abandons a queued waiter whose process timed out.
func (w *waiter) cancel() {
	w.canceled = true
	w.res.live--
}

// NewResource returns a resource with the given concurrency capacity.
// Capacity must be positive.
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: resource %q capacity %d must be positive", name, capacity))
	}
	return &Resource{env: e, name: name, capacity: capacity}
}

// Name returns the resource's label.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured concurrency limit.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting.
func (r *Resource) QueueLen() int { return r.live }

// MaxQueueLen returns the largest wait-queue length observed.
func (r *Resource) MaxQueueLen() int { return r.maxQueue }

// Acquired returns the total number of successful acquisitions.
func (r *Resource) Acquired() uint64 { return r.acquired }

// BusyTime returns the accumulated unit-busy time (unit-seconds as a
// Duration): integrating InUse over time. With capacity 1 this is simply
// how long the resource has been held.
func (r *Resource) BusyTime() time.Duration {
	r.accrue()
	return r.busyTime
}

// Utilization returns the time-averaged fraction of capacity held between
// simulation start and now.
func (r *Resource) Utilization() float64 {
	r.accrue()
	if r.env.now == 0 {
		return 0
	}
	return float64(r.busyTime) / (float64(r.env.now) * float64(r.capacity))
}

func (r *Resource) accrue() {
	dt := r.env.now - r.lastChange
	r.busyTime += time.Duration(float64(dt) * float64(r.inUse))
	r.lastChange = r.env.now
}

// free reports whether a unit can be taken right now without queueing:
// one is idle and nobody (not even an abandoned waiter) is ahead.
func (r *Resource) free() bool { return r.inUse < r.capacity && len(r.queue) == r.head }

// enqueue appends a fresh waiter for the calling process.
func (r *Resource) enqueue() *waiter {
	if r.head > 0 && len(r.queue) == cap(r.queue) {
		// Slide the live tail down instead of growing past a dead prefix.
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue, r.head = r.queue[:n], 0
	}
	w := r.env.newWaiter()
	w.res = r
	w.ev = r.env.NewEvent()
	r.queue = append(r.queue, w)
	r.live++
	if r.live > r.maxQueue {
		r.maxQueue = r.live
	}
	return w
}

// BeginAcquire takes a unit for p, suspending p in the FIFO queue until
// one is available; it reports false when the unit was free and p was not
// suspended.
func (r *Resource) BeginAcquire(p *Proc) bool {
	p.ok = true
	if r.free() {
		r.take()
		return false
	}
	w := r.enqueue()
	w.ev.addWaiter(p, p.blocks+1)
	p.suspend(pendAcquire)
	p.w = w
	return true
}

// BeginAcquireTimeout is BeginAcquire with a deadline d from now; once
// resolved, OK reports whether the unit was acquired.
func (r *Resource) BeginAcquireTimeout(p *Proc, d time.Duration) bool {
	p.ok = true
	if r.free() {
		r.take()
		return false
	}
	w := r.enqueue()
	p.waitTimeout(w.ev, d, pendAcquire)
	p.w = w
	return true
}

// Acquire blocks p until a unit is available, then takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.BeginAcquire(p) {
		p.park()
	}
}

// TryAcquire takes a unit if one is free right now, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.free() {
		r.take()
		return true
	}
	return false
}

// AcquireTimeout blocks p until a unit is available or d elapses. It reports
// whether the unit was acquired.
func (r *Resource) AcquireTimeout(p *Proc, d time.Duration) bool {
	if r.BeginAcquireTimeout(p, d) {
		p.park()
	}
	return p.ok
}

func (r *Resource) take() {
	r.accrue()
	r.inUse++
	r.acquired++
}

// Release returns a unit; if processes are queued the unit transfers to the
// oldest live waiter immediately (at the current instant).
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("netsim: release of idle resource %q", r.name))
	}
	r.accrue()
	r.inUse--
	for r.head < len(r.queue) {
		w := r.queue[r.head]
		r.queue[r.head] = nil
		if r.head++; r.head == len(r.queue) {
			r.queue, r.head = r.queue[:0], 0
		}
		if w.canceled {
			// The timed-out waiter abandoned this never-triggered event
			// and its queue node; recycle both.
			ev := w.ev
			r.env.freeWaiter(w)
			r.env.FreeEvent(ev)
			continue
		}
		// Hand the unit straight to the waiter: counts as taken now so
		// a racing TryAcquire cannot steal it.
		r.live--
		r.take()
		w.ev.Trigger()
		return
	}
}
