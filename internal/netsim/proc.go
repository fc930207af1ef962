package netsim

import (
	"fmt"
	"runtime"
	"time"
)

// Task is the body of a stackless process: a state machine the driver
// steps. Step advances the task on p until it either suspends p through one
// of the Begin primitives (Proc.BeginSleep, Link.BeginTransferTimeout, …)
// or finishes. It reports true when p is suspended — the driver calls Step
// again, in driver context, when that block resolves — and false when the
// task is done. A task must not call the blocking forms (Sleep, Transfer,
// Acquire, Do): there is no goroutine to park.
//
// A task composes sub-machines the protothread way: it keeps the child in
// its own state and forwards every Step to the child's until the child
// reports false, so the kernel only ever knows a process's outermost task.
type Task interface {
	Step(p *Proc) (suspended bool)
}

// pendKind names the block a suspended process is in, which is also what
// has to be tidied up when that block resolves (see Proc.resolve).
type pendKind uint8

const (
	pendNone     pendKind = iota // running, or suspended in a Sleep: nothing to tidy
	pendTransfer                 // link flow, with or without a deadline
	pendAcquire                  // resource queue, with or without a deadline
)

// Proc is a simulated process: a virtual thread of control that blocks on
// the kernel's primitives. Its methods may only be called while it holds
// the execution token — from its own function or its task's Step.
//
// A process is either goroutine-backed (Env.Go: its function runs on its
// own goroutine and the blocking primitives park that goroutine) or
// stackless (Env.Spawn: no goroutine; the driver calls its Task). Both
// share one bookkeeping: blocks is a generation counter that only ever
// increases, so a wakeup aimed at an earlier block — a deadline or a
// completion that lost its race, a predecessor's wake after the Proc was
// recycled — never matches and is dropped.
//
// Dead stackless Procs are recycled by the next Spawn; blocks is
// deliberately NOT reset on reuse. A goroutine-backed Proc is never reused.
type Proc struct {
	env        *Env
	name       string
	wake       chan struct{} // nil: stackless
	slot       int           // goroutine process: index in Env.live until fn returns
	task       Task          // stepped by the driver while non-nil (see Do for goroutine procs)
	dead       bool
	kill       bool   // tells the parked goroutine to exit (see endLive)
	blocks     uint64 // number of blocks entered so far, ever
	blockedNow bool

	// The block in progress. A process is in at most one, so the Proc is
	// the frame for it: no per-block closure or allocation.
	pend  pendKind
	ok    bool    // outcome of the last block (see OK)
	timer Timer   // the deadline's wake entry, zero for untimed blocks
	link  *Link   // pendTransfer
	fl    *Flow   // pendTransfer
	w     *waiter // pendAcquire
}

// Name returns the label the process was started with.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// OK reports the outcome of the block that most recently resolved, or of
// the Begin call that completed without suspending: false only when a
// timed block (BeginTransferTimeout, BeginAcquireTimeout) ran out of time.
func (p *Proc) OK() bool { return p.ok }

// Go starts fn as a new goroutine-backed process at the current time.
// It can be called before Run, from another process, or from a callback.
// Every call allocates a Proc, a wake channel and a goroutine: a simulated
// run starts one of these (the coordinator; everything else is a Spawn), so
// there is nothing to pool.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, wake: make(chan struct{}, 1), slot: len(e.live)}
	e.live = append(e.live, p)
	go e.runProc(p, fn)
	e.pushProc(entStart, e.now, p)
	return p
}

// GoAfter starts fn as a new goroutine-backed process after delay d.
func (e *Env) GoAfter(name string, d time.Duration, fn func(p *Proc)) {
	e.After(d, func() { e.Go(name, fn) })
}

// Spawn starts t as a new stackless process at the current time: the same
// start entry Go pushes, but dispatching it calls t.Step in driver context
// instead of waking a goroutine. The process ends when Step reports false.
func (e *Env) Spawn(name string, t Task) {
	e.pushProc(entStart, e.now, e.newStackless(name, t))
}

// SpawnAfter starts t as a new stackless process after delay d. Like
// GoAfter it costs two calendar entries — a timer at now+d whose dispatch
// pushes the start entry — so a task spawned this way interleaves with
// same-instant work exactly as a GoAfter process does.
func (e *Env) SpawnAfter(name string, d time.Duration, t Task) {
	if d < 0 {
		d = 0
	}
	e.pushProc(entSpawn, e.now+d, e.newStackless(name, t))
}

func (e *Env) newStackless(name string, t Task) *Proc {
	var p *Proc
	if n := len(e.tfree); n > 0 {
		p = e.tfree[n-1]
		e.tfree[n-1] = nil
		e.tfree = e.tfree[:n-1]
		p.dead = false
		p.blockedNow = false
	} else {
		p = &Proc{env: e}
	}
	p.name = name
	p.task = t
	return p
}

// runProc is the body of a process goroutine: wait for the start dispatch,
// run fn, leave the live list and hand the token back. Touching e.live here
// is safe: the driver is blocked in <-e.yield and observes the change only
// after the send (channel happens-before).
func (e *Env) runProc(p *Proc, fn func(p *Proc)) {
	// Acknowledge on the way out however the goroutine ends. When endLive
	// kills it — before its start (return below) or parked in a block
	// (Goexit in yieldToken) — the swap-delete is skipped: endLive is
	// walking e.live.
	defer func() { e.yield <- struct{}{} }()
	<-p.wake
	if p.kill {
		return
	}
	e.runBody(p, fn)
	p.dead = true
	last := len(e.live) - 1
	e.live[p.slot] = e.live[last]
	e.live[p.slot].slot = p.slot
	e.live[last] = nil
	e.live = e.live[:last]
}

// runBody executes the process function, converting a panic into the
// environment error that Run re-raises.
func (e *Env) runBody(p *Proc, fn func(p *Proc)) {
	defer e.recoverProc(p)
	fn(p)
}

// recoverProc is deferred around every piece of process code, goroutine
// body or task step alike. A task's type is named beside the process, so
// processes that share a name still say which role panicked.
func (e *Env) recoverProc(p *Proc) {
	if r := recover(); r != nil {
		if p.task != nil {
			e.err = fmt.Sprintf("netsim: process %q panicked in %T: %v", p.name, p.task, r)
		} else {
			e.err = fmt.Sprintf("netsim: process %q panicked: %v", p.name, r)
		}
	}
}

// endLive ends every goroutine process that has not finished — parked in a
// block, in Do, or still waiting for its start. Run calls it before
// re-raising a process panic: the environment is abandoned there, and a
// parked goroutine is never garbage collected.
func (e *Env) endLive() {
	for i, p := range e.live {
		p.kill, p.dead = true, true
		p.wake <- struct{}{}
		<-e.yield // the goroutine acknowledges and exits
		e.live[i] = nil
	}
	e.live = e.live[:0]
}

// resume gives p the execution token after a start entry or a resolved
// block. A process with a task is stepped right here in driver context; a
// goroutine process without one (or whose task just finished — it is parked
// in Do) is handed the token over its wake channel.
func (e *Env) resume(p *Proc) {
	if p.task != nil {
		e.stats.Inline++
		if e.step(p) {
			return
		}
		p.task = nil
		if p.wake == nil { // stackless: the incarnation is over
			p.dead = true
			e.tfree = append(e.tfree, p)
			return
		}
		if e.err != nil {
			return // the step panicked under a goroutine parked in Do; Run ends it
		}
	}
	e.stats.Handoffs++
	p.wake <- struct{}{}
	<-e.yield
}

// step runs one Step of p's task in driver context. A panic becomes the
// environment error, exactly as for a goroutine body, and ends the task.
func (e *Env) step(p *Proc) (suspended bool) {
	defer e.recoverProc(p)
	return p.task.Step(p)
}

// Do runs t to completion on p, a goroutine-backed process, as if p had
// executed t's blocks itself: they count on p's own block counter and wake
// entries are pushed exactly where the blocking calls would push them. The
// first Step runs here; if it suspends, p's goroutine parks once and the
// driver steps t from then on, handing the token back inside the dispatch
// that finishes it. The cost is one goroutine handoff per Do instead of one
// per block, and none when t never blocks. websim.Server.Serve is built on
// it, and so is core's baseline: the coordinator runs each client's
// baseline fetch on its own process.
func (p *Proc) Do(t Task) {
	if p.task != nil {
		panic("netsim: Do called from inside a task step")
	}
	p.task = t
	if t.Step(p) {
		p.yieldToken()
	}
	p.task = nil
}

// suspend enters block #blocks+1; the caller has already aimed at least
// one wake source (calendar entry, flow, queue node) at that
// generation.
func (p *Proc) suspend(kind pendKind) {
	p.blocks++
	p.blockedNow = true
	p.pend = kind
}

// park blocks p's goroutine until the driver resumes it.
func (p *Proc) park() {
	if p.task != nil {
		panic(fmt.Sprintf("netsim: process %q made a blocking call inside a task step; use the Begin form", p.name))
	}
	p.yieldToken()
}

func (p *Proc) yieldToken() {
	p.env.yield <- struct{}{}
	<-p.wake
	if p.kill {
		runtime.Goexit()
	}
}

// resolve runs in driver context when the wake entry matching p's current
// block is dispatched, before p (goroutine or task) sees the token again —
// Run calls it for every block but a plain Sleep, after presetting
// OK to true. It is the code that used to follow the block inside each
// primitive: cancel the losing deadline entry, abort a flow that ran out of
// time, hand flows and queue nodes back to their pools, and record a
// timeout for OK.
func (p *Proc) resolve() {
	e := p.env
	p.timer.Cancel()
	p.timer = Timer{}
	switch p.pend {
	case pendTransfer:
		// Either way the flow is off the link (retired by complete, or
		// removed by abort here) and nobody else holds it, so it recycles.
		fl := p.fl
		if !fl.done {
			p.ok = false
			p.link.abort(fl)
		}
		e.freeFlow(fl)
		p.fl, p.link = nil, nil
	case pendAcquire:
		w := p.w
		if w.granted {
			// The releaser transferred the unit to us (take() already ran)
			// and popped w off the queue; the node is ours alone.
			e.freeWaiter(w)
		} else {
			// Timed out: mark the node canceled so a future release skips
			// and recycles it.
			p.ok = false
			w.cancel()
		}
		p.w = nil
	}
	p.pend = pendNone
}

// BeginSleep suspends p for d of virtual time (d <= 0 yields the token and
// resumes at the same instant, after other work scheduled for it). It
// always suspends.
func (p *Proc) BeginSleep(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	p.env.pushWake(p.env.now+d, p, p.blocks+1)
	p.suspend(pendNone)
	return true
}

// waitTimeout suspends p in a block whose resolver (flow or queue node)
// the caller has already aimed at the next generation, adding the deadline
// entry as the second, racing wake source. Whichever dispatches second is
// dropped by the generation guard in Run; resolve cancels the deadline if
// the resolver won.
func (p *Proc) waitTimeout(d time.Duration, kind pendKind) {
	p.timer = p.env.timerFor(p.env.pushWake(p.env.now+d, p, p.blocks+1))
	p.suspend(kind)
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.BeginSleep(d)
	p.park()
}
