package netsim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Calendar entries are recycled once dispatched. A Timer handle kept across
// the fire must become inert: canceling it must not cancel whatever entry
// reused the allocation.
func TestTimerCancelAfterFireIsInert(t *testing.T) {
	env := NewEnv(1)
	fired1 := false
	tm := env.After(time.Millisecond, func() { fired1 = true })
	env.Run(0)
	if !fired1 {
		t.Fatal("first timer did not fire")
	}
	// This push reuses the recycled entry (LIFO free list).
	fired2 := false
	env.After(time.Millisecond, func() { fired2 = true })
	tm.Cancel() // stale handle: seq mismatch, must be a no-op
	env.Run(0)
	if !fired2 {
		t.Error("stale Timer.Cancel killed a recycled entry's callback")
	}
}

// Canceling the zero Timer must be safe — Link holds one before its first
// completion callback is scheduled.
func TestZeroTimerCancelIsSafe(t *testing.T) {
	var tm Timer
	tm.Cancel()
}

// A canceled entry is recycled on pop and must also be reusable.
func TestCanceledEntryIsRecycled(t *testing.T) {
	env := NewEnv(1)
	count := 0
	for i := 0; i < 100; i++ {
		tm := env.After(time.Duration(i)*time.Microsecond, func() { count++ })
		if i%2 == 1 {
			tm.Cancel()
		}
	}
	env.Run(0)
	if count != 50 {
		t.Errorf("fired %d callbacks, want 50", count)
	}
	if got := len(env.free); got == 0 {
		t.Error("free list empty after run; entries are not recycled")
	}
}

// The free list must not grow beyond the peak calendar size even over many
// schedule/dispatch cycles — the same entries keep cycling.
func TestFreeListStaysBounded(t *testing.T) {
	env := NewEnv(1)
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 10_000; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	env.Run(0)
	if got := len(env.free); got > 16 {
		t.Errorf("free list grew to %d entries for a single-proc ticker", got)
	}
}

// BenchmarkKernelSleepCycle measures the hot dispatch loop in isolation: one
// process sleeping in a tight loop is one calendar push + pop + a wake/yield
// handoff per iteration. The entry pool should keep this allocation-free
// after warm-up.
func BenchmarkKernelSleepCycle(b *testing.B) {
	env := NewEnv(1)
	stop := make(chan struct{})
	env.Go("sleeper", func(p *Proc) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(time.Duration(b.N) * time.Microsecond)
	b.StopTimer()
	close(stop)
	env.Run(2 * time.Microsecond) // let the sleeper observe stop and exit
}

// BenchmarkLinkReallocate measures the fluid-flow waterfill under a steady
// population of concurrent flows — the second-hottest path in simulated
// experiments.
func BenchmarkLinkReallocate(b *testing.B) {
	env := NewEnv(1)
	link := env.NewLink("bench", 1e9)
	for i := 0; i < 50; i++ {
		link.StartFlow(1e12, 1e6) // long-lived capped flows
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.reallocate()
	}
}

// Events are recycled through FreeEvent. A freed event must come back from
// NewEvent reset — untriggered, with no waiters — and the free list must
// actually be hit (LIFO reuse of the same allocation).
func TestEventPoolRecyclesAndResets(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	env.Go("waiter", func(p *Proc) { p.Wait(ev) })
	env.Go("trigger", func(p *Proc) { ev.Trigger() })
	env.Run(0)
	if !ev.Triggered() {
		t.Fatal("event did not trigger")
	}
	env.FreeEvent(ev)
	ev2 := env.NewEvent()
	if ev2 != ev {
		t.Error("NewEvent did not reuse the freed event")
	}
	if ev2.Triggered() || len(ev2.waiters) != 0 {
		t.Errorf("recycled event not reset: triggered=%v waiters=%d",
			ev2.Triggered(), len(ev2.waiters))
	}
}

// Triggering recycles the waiter slice; the next event to take waiters must
// reuse its capacity instead of growing a fresh slice.
func TestEventWaiterSliceRecycled(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	for i := 0; i < 4; i++ {
		env.Go("w", func(p *Proc) { p.Wait(ev) })
	}
	env.Go("t", func(p *Proc) { p.Sleep(time.Millisecond); ev.Trigger() })
	env.Run(0)
	if len(env.wfree) == 0 {
		t.Fatal("trigger did not recycle the waiter slice")
	}
	recycled := env.wfree[len(env.wfree)-1]
	if cap(recycled) < 4 {
		t.Fatalf("recycled slice capacity %d, want >= 4", cap(recycled))
	}
	ev2 := env.NewEvent()
	env.Go("w2", func(p *Proc) { p.Wait(ev2) })
	env.Go("t2", func(p *Proc) { ev2.Trigger() })
	env.Run(0)
	// The waiter slice pool is LIFO too: ev2 must have taken the slice back.
	if len(env.wfree) == 0 || cap(env.wfree[len(env.wfree)-1]) < 4 {
		t.Error("second event did not cycle the recycled waiter slice")
	}
}

// A stale waiter left behind by a timed-out WaitTimeout must not leak into
// the event's next life: after FreeEvent and reuse, triggering the recycled
// event must not disturb the process that abandoned it.
func TestFreedEventWithStaleWaiterIsInert(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	reached := false
	env.Go("abandoner", func(p *Proc) {
		if p.WaitTimeout(ev, time.Millisecond) {
			t.Error("event unexpectedly triggered")
		}
		env.FreeEvent(ev) // we were the only user
		// Reuse the allocation for an unrelated event and trigger it while
		// this process is asleep; a leaked stale waiter would wake us early
		// or corrupt the next block.
		ev2 := env.NewEvent()
		env.Go("other", func(q *Proc) { q.Wait(ev2) })
		env.After(2*time.Millisecond, func() { ev2.Trigger() })
		p.Sleep(10 * time.Millisecond)
		reached = true
	})
	env.Run(0)
	if !reached {
		t.Error("abandoning process did not complete")
	}
}

// A process goroutine ends with its function: no goroutines accumulate
// across sequential simulations in one process.
func TestProcPoolDrainedAtExhaustion(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		env := NewEnv(int64(round + 1))
		for i := 0; i < 30; i++ {
			env.Go("worker", func(p *Proc) { p.Sleep(time.Millisecond) })
		}
		env.Run(0)
		if got := len(env.live); got != 0 {
			t.Fatalf("round %d: %d procs still live after exhaustion", round, got)
		}
	}
	// The last acknowledged goroutine may still be between its yield and
	// its return; give the scheduler a moment before counting.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d across 20 finished simulations",
		base, runtime.NumGoroutine())
}

// A panicking process must re-raise through Run with its name attached, and
// leave the live list empty.
func TestPooledProcPanicStillPropagates(t *testing.T) {
	env := NewEnv(1)
	env.Go("bomb", func(p *Proc) { panic("boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-raise the process panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "bomb") || !strings.Contains(s, "boom") {
			t.Errorf("panic value %v lacks process context", r)
		}
		if got := len(env.live); got != 0 {
			t.Errorf("%d procs still live after panic exit", got)
		}
	}()
	env.Run(0)
}

// BenchmarkEnvGoSpawn measures sequential spawn→run→die cycles of a
// goroutine process: a Proc, a wake channel and a goroutine each.
func BenchmarkEnvGoSpawn(b *testing.B) {
	env := NewEnv(1)
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			env.Go("child", func(q *Proc) {})
			p.Sleep(time.Microsecond) // let the child run and die
		}
	})
	env.Run(0)
}

// BenchmarkLinkWaterfill measures a synchronized crowd wave: 50 flows
// arriving at one simulated instant and draining: one waterfill for the
// whole wave, where recomputing on every flow change would run 50.
func BenchmarkLinkWaterfill(b *testing.B) {
	env := NewEnv(1)
	link := env.NewLink("bench", 1e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < 50; w++ {
			w := w
			env.Go("wave", func(p *Proc) {
				link.Transfer(p, 1e4, float64(1e6+1e4*w))
			})
		}
		env.Run(0)
	}
}

// Resource and Link waits recycle their events: over many cycles the event
// free list must stay flat (the same handful of events keep cycling), the
// same bound the calendar free list honors.
func TestEventFreeListStaysBounded(t *testing.T) {
	env := NewEnv(1)
	res := env.NewResource("db", 1)
	link := env.NewLink("net", 1e6)
	for w := 0; w < 4; w++ {
		env.Go("worker", func(p *Proc) {
			for i := 0; i < 500; i++ {
				res.Acquire(p)
				p.Sleep(time.Microsecond)
				res.Release()
				link.Transfer(p, 100, 0)
				if i%5 == 0 {
					res.AcquireTimeout(p, 10*time.Nanosecond) // mostly times out
				}
			}
		})
	}
	env.Run(0)
	if got := len(env.evfree); got > 32 {
		t.Errorf("event free list grew to %d; events are not cycling", got)
	}
	if got := len(env.wfree); got > 32 {
		t.Errorf("waiter-slice free list grew to %d", got)
	}
}
