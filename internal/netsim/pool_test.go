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
		env.Spawn("flow", steps(func(p *Proc) bool {
			return link.BeginTransfer(p, 1e12, 1e6) // long-lived capped flows
		}))
	}
	env.Run(time.Nanosecond) // start them all; none finishes for days
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.reallocate()
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

// Resource and Link blocks recycle their queue nodes and flows: over many
// cycles, timeouts included, both free lists stay flat (the same handful
// keep cycling), the same bound the calendar free list honors.
func TestFreeListsStayBounded(t *testing.T) {
	env := NewEnv(1)
	res := env.NewResource("db", 1)
	link := env.NewLink("net", 1e6)
	var timedOut int
	for w := 0; w < 4; w++ {
		i := 0
		env.Spawn("worker", &repeat{n: 500, s: steps(
			func(p *Proc) bool { return res.BeginAcquire(p) },
			func(p *Proc) bool { return p.BeginSleep(time.Microsecond) },
			func(p *Proc) bool {
				// The unit goes to the next queued worker, if any, so a timed
				// acquire right behind it mostly times out.
				res.Release()
				return i%5 == 0 && res.BeginAcquireTimeout(p, 10*time.Nanosecond)
			},
			func(p *Proc) bool {
				if i%5 == 0 {
					if p.OK() {
						res.Release()
					} else {
						timedOut++
					}
				}
				i++
				return link.BeginTransfer(p, 100, 0)
			},
		)})
	}
	env.Run(0)
	if got := len(env.flfree); got > 32 {
		t.Errorf("flow free list grew to %d; flows are not cycling", got)
	}
	if got := len(env.wtfree); got > 32 {
		t.Errorf("queue-node free list grew to %d; nodes are not cycling", got)
	}
	if timedOut == 0 {
		t.Error("no acquire timed out; the canceled-node path never ran")
	}
}

// repeat runs a script's steps n times over.
type repeat struct {
	s *script
	n int
}

func (r *repeat) Step(p *Proc) bool {
	for ; r.n > 0; r.n-- {
		if r.s.Step(p) {
			return true
		}
		r.s.next = 0
	}
	return false
}
