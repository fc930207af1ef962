package netsim

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Link models a shared transmission link as a fluid-flow system: every
// active flow receives a max-min fair share of the link capacity, subject to
// an optional per-flow rate cap (the far end's own access bandwidth). Flow
// arrivals and departures mark the link dirty; the environment recomputes
// the waterfill and reschedules the next completion event exactly once per
// simulated instant, when the clock is about to advance (see Env.Run). A
// synchronized crowd of N arrivals at one timestamp therefore costs one
// recomputation, not N. Within an instant no virtual time passes, so the
// deferred rates, byte accounting, and completion instants equal the eager
// kernel's — the differential tests verify it end to end against the
// reference immediate-reallocate kernel (see env.go's package comment for
// the one narrow divergence: same-nanosecond tie-break order of the
// completion callback).
//
// This is the standard flow-level abstraction of TCP bandwidth sharing: with
// N long-lived flows on a C-bit/s link, each receives ≈ C/N. It captures the
// response-time growth the paper's Large Object stage exploits (Figure 5)
// without simulating individual packets.
type Link struct {
	env        *Env
	name       string
	capacity   float64 // bytes per second (configured; see effectiveCapacity)
	flows      []*Flow // insertion order; iteration must stay deterministic
	scratch    []*Flow // reusable sort buffer for reallocate
	dirty      bool    // registered on env.dirty for the end-of-instant flush
	lastUpd    time.Duration
	next       Timer
	completeFn func() // l.complete, bound once to avoid a per-reallocate closure

	// Fault state (scenario/chaos hooks). The zero values are the clean
	// path: factor 1 semantics, no loss, link up. reallocate multiplies
	// them into the deliverable capacity only when set, so a run that
	// never touches the hooks performs bit-identical float math to one
	// built before they existed.
	capFactor float64 // capacity multiplier; 0 means unset (treat as 1)
	lossRate  float64 // sustained loss fraction in [0,1): goodput scales by (1-loss)
	down      bool    // link flap: all flows stall at rate 0

	// metrics
	bytesSent float64
	busyTime  time.Duration // time with >= 1 active flow
	lastBusy  time.Duration
	flowsDone uint64
	maxActive int
}

// Flow is one in-flight transfer on a Link.
type Flow struct {
	remaining float64 // bytes left
	cap       float64 // per-flow rate cap (bytes/sec); +Inf if uncapped
	rate      float64 // currently allocated rate
	done      *Event
	started   time.Duration
}

// NewLink creates a link with capacity in bytes per second.
func (e *Env) NewLink(name string, bytesPerSec float64) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("netsim: link %q capacity %v must be positive", name, bytesPerSec))
	}
	l := &Link{
		env:      e,
		name:     name,
		capacity: bytesPerSec,
	}
	l.completeFn = l.complete // bound once: reallocate runs on every arrival
	return l
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// Capacity returns the configured capacity in bytes per second.
func (l *Link) Capacity() float64 { return l.capacity }

// effectiveCapacity is the capacity the waterfill distributes right now:
// the configured capacity scaled by the chaos hooks. Loss models TCP
// goodput under sustained random loss at the fluid level (deliverable
// bytes scale by 1-p); a capacity step is an operator- or path-induced
// bandwidth change; down is a flap (everything stalls). The multiplies
// only happen when a hook is active, so untouched links keep their exact
// pre-hook float behavior.
func (l *Link) effectiveCapacity() float64 {
	if l.down {
		return 0
	}
	c := l.capacity
	if l.capFactor > 0 && l.capFactor != 1 {
		c *= l.capFactor
	}
	if l.lossRate > 0 {
		c *= 1 - l.lossRate
	}
	return c
}

// SetCapacityFactor scales the link's deliverable capacity by f (a chaos
// capacity step: 0.5 halves it, 2 doubles it). f <= 0 resets to 1. Active
// flows re-waterfill at the current instant; in-flight byte accounting is
// unaffected.
func (l *Link) SetCapacityFactor(f float64) {
	if f <= 0 {
		f = 1
	}
	l.advance()
	l.capFactor = f
	l.changed()
}

// CapacityFactor returns the current capacity multiplier (1 when unset).
func (l *Link) CapacityFactor() float64 {
	if l.capFactor <= 0 {
		return 1
	}
	return l.capFactor
}

// SetLoss sets the sustained packet-loss fraction on the link. At the
// fluid-flow level loss appears as goodput degradation: deliverable
// capacity scales by (1-p). p is clamped to [0, 0.99]; 0 restores the
// clean path.
func (l *Link) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 0.99 {
		p = 0.99
	}
	l.advance()
	l.lossRate = p
	l.changed()
}

// Loss returns the current sustained loss fraction.
func (l *Link) Loss() float64 { return l.lossRate }

// SetDown flaps the link: while down, every flow's rate is zero and
// transfers stall (their deadlines keep running, so requests time out the
// way they would on a real dead path). SetDown(false) brings it back and
// re-waterfills the survivors.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.advance()
	l.down = down
	l.changed()
}

// Down reports whether the link is currently flapped down.
func (l *Link) Down() bool { return l.down }

// Active returns the number of in-flight flows.
func (l *Link) Active() int { return len(l.flows) }

// MaxActive returns the peak number of concurrent flows observed.
func (l *Link) MaxActive() int { return l.maxActive }

// BytesSent returns the total bytes delivered so far.
func (l *Link) BytesSent() float64 {
	l.advance()
	return l.bytesSent
}

// FlowsCompleted returns the number of completed transfers.
func (l *Link) FlowsCompleted() uint64 { return l.flowsDone }

// Utilization returns the fraction of time the link had at least one active
// flow since simulation start.
func (l *Link) Utilization() float64 {
	l.advance()
	if l.env.now == 0 {
		return 0
	}
	return float64(l.busyTime) / float64(l.env.now)
}

// BeginTransfer starts moving `bytes` across the link on behalf of p and
// suspends p until the transfer completes (it always suspends). cap limits
// this flow's rate (<= 0 means uncapped).
func (l *Link) BeginTransfer(p *Proc, bytes, cap float64) bool {
	fl := l.start(bytes, cap)
	fl.done.addWaiter(p, p.blocks+1)
	p.suspend(pendTransfer)
	p.link, p.fl = l, fl
	return true
}

// BeginTransferTimeout is BeginTransfer with a deadline d from now. If the
// deadline passes first the flow is aborted (its partial bytes stay
// counted) and OK reports false.
func (l *Link) BeginTransferTimeout(p *Proc, bytes, cap float64, d time.Duration) bool {
	fl := l.start(bytes, cap)
	p.waitTimeout(fl.done, d, pendTransfer)
	p.link, p.fl = l, fl
	return true
}

// Transfer moves `bytes` across the link on behalf of p, blocking until the
// transfer completes.
func (l *Link) Transfer(p *Proc, bytes float64, cap float64) {
	l.BeginTransfer(p, bytes, cap)
	p.park()
}

// TransferTimeout is Transfer with a deadline; it reports false if the
// deadline passed first.
func (l *Link) TransferTimeout(p *Proc, bytes, cap float64, d time.Duration) bool {
	l.BeginTransferTimeout(p, bytes, cap, d)
	p.park()
	return p.ok
}

// StartFlow begins a transfer without blocking; the returned event triggers
// on completion. Used by server models that overlap transfer with other work.
func (l *Link) StartFlow(bytes, cap float64) *Event {
	return l.start(bytes, cap).done
}

func (l *Link) start(bytes, cap float64) *Flow {
	if bytes <= 0 {
		bytes = 1 // zero-byte responses still occupy an instant
	}
	if cap <= 0 {
		cap = math.Inf(1)
	}
	l.advance()
	fl := l.env.newFlow()
	fl.remaining = bytes
	fl.cap = cap
	fl.done = l.env.NewEvent()
	fl.started = l.env.now
	l.flows = append(l.flows, fl)
	if len(l.flows) > l.maxActive {
		l.maxActive = len(l.flows)
	}
	l.changed()
	return fl
}

func (l *Link) abort(fl *Flow) {
	i := slices.Index(l.flows, fl)
	if i < 0 {
		return
	}
	l.advance()
	l.flows = slices.Delete(l.flows, i, i+1)
	l.changed()
}

// changed records that the flow set was mutated at the current instant. In
// the batched kernel it registers the link for the end-of-instant flush; in
// the reference immediate kernel it recomputes on the spot.
func (l *Link) changed() {
	if l.env.immediate {
		l.reallocate()
		return
	}
	if l.dirty {
		return
	}
	l.dirty = true
	l.env.dirty = append(l.env.dirty, l)
}

// advance progresses all flows by the elapsed wall of virtual time since the
// last update, retiring flows that finished exactly now.
func (l *Link) advance() {
	now := l.env.now
	dt := now - l.lastUpd
	if dt <= 0 {
		return
	}
	if len(l.flows) > 0 {
		l.busyTime += dt
	}
	sec := dt.Seconds()
	for _, fl := range l.flows {
		moved := fl.rate * sec
		if moved > fl.remaining {
			moved = fl.remaining
		}
		fl.remaining -= moved
		l.bytesSent += moved
	}
	l.lastUpd = now
}

// reallocate recomputes max-min fair rates with per-flow caps
// (water-filling) and schedules the next completion callback.
func (l *Link) reallocate() {
	l.next.Cancel()
	l.next = Timer{}
	if len(l.flows) == 0 {
		return
	}

	// Water-filling: ascending by cap; each flow gets min(cap, fair share of
	// what remains among flows not yet fixed). The sort runs on a reusable
	// scratch buffer; stable order over the insertion-ordered flow list keeps
	// every float accumulation below deterministic.
	flows := append(l.scratch[:0], l.flows...)
	l.scratch = flows
	slices.SortStableFunc(flows, func(a, b *Flow) int {
		switch {
		case a.cap < b.cap:
			return -1
		case a.cap > b.cap:
			return 1
		default:
			return 0
		}
	})
	remainingCap := l.effectiveCapacity()
	n := len(flows)
	for i, fl := range flows {
		share := remainingCap / float64(n-i)
		fl.rate = math.Min(fl.cap, share)
		remainingCap -= fl.rate
	}

	// Earliest completion. Round UP to the nanosecond tick: rounding down
	// would leave a sliver of bytes at the callback and respawn
	// zero-duration callbacks forever.
	first := time.Duration(math.MaxInt64)
	for _, fl := range flows {
		if fl.rate <= 0 {
			continue
		}
		t := time.Duration(math.Ceil(fl.remaining / fl.rate * 1e9))
		if t < time.Nanosecond {
			t = time.Nanosecond
		}
		if t < first {
			first = t
		}
	}
	if first == time.Duration(math.MaxInt64) {
		return // all rates zero: stalled until something changes
	}
	l.next = l.env.After(first, l.completeFn)
}

// complete retires every flow that has (within tolerance) finished, triggers
// its completion event, and reallocates for the survivors.
func (l *Link) complete() {
	l.advance()
	const eps = 1e-6 // bytes; absorbs float drift
	keep := l.flows[:0]
	for _, fl := range l.flows {
		if fl.remaining <= eps {
			l.bytesSent += fl.remaining
			fl.remaining = 0
			l.flowsDone++
			fl.done.Trigger()
		} else {
			keep = append(keep, fl)
		}
	}
	for i := len(keep); i < len(l.flows); i++ {
		l.flows[i] = nil
	}
	l.flows = keep
	l.changed()
}
