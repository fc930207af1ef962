package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// script is a Task that runs its steps in order. Each step reports whether
// it suspended the process; the next step then runs when that block
// resolves, otherwise right away.
type script struct {
	steps []func(p *Proc) bool
	next  int
}

func (s *script) Step(p *Proc) bool {
	for s.next < len(s.steps) {
		step := s.steps[s.next]
		s.next++
		if step(p) {
			return true
		}
	}
	return false
}

func steps(fns ...func(p *Proc) bool) *script { return &script{steps: fns} }

// then wraps a step that never suspends.
func then(fn func(p *Proc)) func(p *Proc) bool {
	return func(p *Proc) bool { fn(p); return false }
}

func TestTaskSleepAdvancesClockWithoutGoroutine(t *testing.T) {
	env := NewEnv(1)
	base := runtime.NumGoroutine()
	var woke []time.Duration
	var during int
	env.Spawn("sleeper", steps(
		func(p *Proc) bool { return p.BeginSleep(3 * time.Millisecond) },
		func(p *Proc) bool {
			woke = append(woke, p.Now())
			during = runtime.NumGoroutine()
			return p.BeginSleep(0)
		},
		then(func(p *Proc) { woke = append(woke, p.Now()) }),
	))
	if end := env.Run(0); end != 3*time.Millisecond {
		t.Errorf("Run ended at %v, want 3ms", end)
	}
	if len(woke) != 2 || woke[0] != 3*time.Millisecond || woke[1] != 3*time.Millisecond {
		t.Errorf("woke at %v, want [3ms 3ms]", woke)
	}
	if during != base {
		t.Errorf("%d goroutines while a stackless process ran, want %d", during, base)
	}
	if st := env.Stats(); st.Handoffs != 0 || st.Inline != 3 {
		t.Errorf("stats = %+v, want 0 handoffs and 3 inline steps", st)
	}
}

// A timed-out wait leaves its waiter on the event. A later trigger aims a
// wake at the dead generation and must be dropped; conversely, when the
// event wins, the losing timeout entry is canceled and does not even
// extend virtual time.
func TestTaskStaleWakeAfterTimeoutIsDropped(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	var timedOutAt, wokeAt time.Duration
	var ok bool
	env.Spawn("waiter", steps(
		func(p *Proc) bool { return p.BeginWaitTimeout(ev, time.Millisecond) },
		func(p *Proc) bool {
			ok, timedOutAt = p.OK(), p.Now()
			return p.BeginSleep(10 * time.Millisecond)
		},
		then(func(p *Proc) { wokeAt = p.Now() }),
	))
	env.After(2*time.Millisecond, ev.Trigger) // stale: the wait it targets is over
	env.Run(0)
	if ok || timedOutAt != time.Millisecond {
		t.Errorf("wait resolved ok=%v at %v, want a timeout at 1ms", ok, timedOutAt)
	}
	if wokeAt != 11*time.Millisecond {
		t.Errorf("sleep ended at %v, want 11ms; the stale trigger leaked through", wokeAt)
	}

	env = NewEnv(1)
	ev = env.NewEvent()
	env.Spawn("waiter", steps(
		func(p *Proc) bool { return p.BeginWaitTimeout(ev, time.Hour) },
		then(func(p *Proc) { ok = p.OK() }),
	))
	env.After(time.Millisecond, ev.Trigger)
	if end := env.Run(0); !ok || end != time.Millisecond {
		t.Errorf("event win: ok=%v, Run ended at %v; want true at 1ms (timeout entry canceled)", ok, end)
	}
}

// An event trigger and the timeout falling on the same nanosecond resolve
// by calendar order, and a task sees exactly what a goroutine process's
// WaitTimeout sees — whichever of the two was scheduled first wins.
func TestTaskWaitTimeoutSameInstantMatchesBlockingForm(t *testing.T) {
	const at = 5 * time.Millisecond
	for _, triggerFirst := range []bool{true, false} {
		run := func(stackless bool) (ok bool, when time.Duration) {
			env := NewEnv(1)
			ev := env.NewEvent()
			if triggerFirst {
				env.After(at, ev.Trigger)
			}
			if stackless {
				env.Spawn("w", steps(
					func(p *Proc) bool { return p.BeginWaitTimeout(ev, at) },
					then(func(p *Proc) { ok, when = p.OK(), p.Now() }),
				))
			} else {
				env.Go("w", func(p *Proc) { ok, when = p.WaitTimeout(ev, at), p.Now() })
			}
			if !triggerFirst {
				// The timeout entry is pushed when the process starts, at t=0;
				// only a trigger scheduled from a later instant sorts behind it.
				env.After(time.Millisecond, func() { env.After(at-time.Millisecond, ev.Trigger) })
			}
			env.Run(0)
			return ok, when
		}
		gOK, gWhen := run(false)
		tOK, tWhen := run(true)
		if gOK != tOK || gWhen != tWhen {
			t.Errorf("triggerFirst=%v: goroutine (%v at %v) and task (%v at %v) disagree",
				triggerFirst, gOK, gWhen, tOK, tWhen)
		}
		if gOK != triggerFirst || gWhen != at {
			t.Errorf("triggerFirst=%v: resolved ok=%v at %v", triggerFirst, gOK, gWhen)
		}
	}
}

// Stackless and goroutine processes contending for one Resource and one
// Link are served strictly in registration order: any mix of the two kinds
// produces the trace an all-goroutine run produces.
func TestTaskAndGoroutineShareFIFOOrder(t *testing.T) {
	contend := func(stackless [4]bool) string {
		env := NewEnv(1)
		res := env.NewResource("r", 1)
		link := env.NewLink("l", 1e6)
		var order []string
		for i, name := range []string{"a", "b", "c", "d"} {
			name := name
			if stackless[i] {
				env.Spawn(name, steps(
					func(p *Proc) bool { return res.BeginAcquire(p) },
					func(p *Proc) bool { order = append(order, "res:"+name); return p.BeginSleep(time.Millisecond) },
					func(p *Proc) bool { res.Release(); return link.BeginTransfer(p, 1000, 0) },
					then(func(p *Proc) { order = append(order, fmt.Sprintf("link:%s@%v", name, p.Now())) }),
				))
				continue
			}
			env.Go(name, func(p *Proc) {
				res.Acquire(p)
				order = append(order, "res:"+name)
				p.Sleep(time.Millisecond)
				res.Release()
				link.Transfer(p, 1000, 0)
				order = append(order, fmt.Sprintf("link:%s@%v", name, p.Now()))
			})
		}
		env.Run(0)
		return strings.Join(order, " ")
	}
	// All four queue at t=0 and take the unit in spawn order a millisecond
	// apart; each 1ms transfer follows its holder's release.
	want := "res:a res:b res:c link:a@2ms res:d link:b@3ms link:c@4ms link:d@5ms"
	for _, mix := range [][4]bool{{}, {true, false, true, false}, {false, true, true, false}, {true, true, true, true}} {
		if got := contend(mix); got != want {
			t.Errorf("stackless=%v:\n got  %s\n want %s", mix, got, want)
		}
	}

	var order []string
	// Same instant on the link: equal flows finish together and wake in
	// registration order, whatever kind of process they belong to.
	env := NewEnv(1)
	link := env.NewLink("l", 1e6)
	xfer := func(name string) *script {
		return steps(
			func(p *Proc) bool { return link.BeginTransferTimeout(p, 500, 0, time.Second) },
			then(func(p *Proc) { order = append(order, name) }),
		)
	}
	env.Spawn("a", xfer("a"))
	env.Go("b", func(p *Proc) { link.TransferTimeout(p, 500, 0, time.Second); order = append(order, "b") })
	env.Spawn("c", xfer("c"))
	env.Run(0)
	if strings.Join(order, "") != "abc" {
		t.Errorf("same-instant link wake order %v, want [a b c]", order)
	}
}

// A panicking step surfaces from Run exactly like a panicking goroutine
// body, and nothing is left running — not even the goroutine of a process
// that was parked in Do while the driver stepped its task.
func TestTaskPanicPropagatesAndLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	bomb := func() *script {
		return steps(
			func(p *Proc) bool { return p.BeginSleep(time.Millisecond) },
			func(p *Proc) bool { panic("boom") },
		)
	}
	for _, viaDo := range []bool{false, true} {
		env := NewEnv(1)
		if viaDo {
			env.Go("bomb", func(p *Proc) { p.Do(bomb()) })
		} else {
			env.Spawn("bomb", bomb())
		}
		env.Go("bystander", func(p *Proc) {}) // finished by then; its goroutine is gone
		func() {
			defer func() {
				r := recover()
				s, ok := r.(string)
				if !ok || !strings.Contains(s, `netsim: process "bomb" panicked`) || !strings.Contains(s, "boom") {
					t.Errorf("viaDo=%v: Run raised %v, want the process panic", viaDo, r)
				}
			}()
			env.Run(0)
		}()
		if got := len(env.live); got != 0 {
			t.Errorf("viaDo=%v: %d procs still live after the panic", viaDo, got)
		}
	}
	expectGoroutines(t, base)
}

// Run ends goroutine processes parked in a block before it re-raises a
// panic: a recovered failure (campaign jobs recover per-site panics) must not
// leave the coordinator's goroutine, and the Env it references, behind.
func TestRunEndsParkedGoroutinesOnPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		env := NewEnv(int64(i + 1))
		env.Go("coordinator", func(p *Proc) { p.Sleep(time.Hour) })
		env.Spawn("bomb", steps(
			func(p *Proc) bool { return p.BeginSleep(time.Millisecond) },
			func(p *Proc) bool { panic("boom") },
		))
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Run did not re-raise the task panic")
				}
			}()
			env.Run(0)
		}()
	}
	expectGoroutines(t, base)
}

// expectGoroutines fails unless the goroutine count settles back to base.
func expectGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond) // the last acknowledged goroutine may still be returning
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("goroutines grew from %d to %d across panicking runs", base, got)
	}
}

// Dead stackless procs are recycled by the next Spawn.
func TestStacklessPoolReusesDeadProc(t *testing.T) {
	env := NewEnv(1)
	seen := make(map[*Proc]int)
	var names []string
	for i := 0; i < 50; i++ {
		env.SpawnAfter(fmt.Sprintf("spawn%d", i), time.Duration(i)*time.Millisecond, steps(
			func(p *Proc) bool { return p.BeginSleep(time.Microsecond) },
			then(func(p *Proc) { seen[p]++; names = append(names, p.Name()) }),
		))
	}
	// SpawnAfter takes its Proc at call time, so the 50 above are distinct;
	// sequential lifetimes afterwards must cycle the pool.
	env.Run(0)
	first := len(seen)
	for i := 0; i < 50; i++ {
		env.Spawn("again", steps(then(func(p *Proc) { seen[p]++; names = append(names, p.Name()) })))
		env.Run(0)
	}
	if len(seen) != first {
		t.Errorf("%d new Proc allocations for 50 sequential stackless lifetimes; pool not reusing", len(seen)-first)
	}
	for i, n := range names {
		want := "again"
		if i < 50 {
			want = fmt.Sprintf("spawn%d", i)
		}
		if n != want {
			t.Errorf("lifetime %d ran as %q, want %q", i, n, want)
		}
	}
}

// A recycled stackless proc must not observe its predecessor's wake: an
// event still holding the dead incarnation's waiter fires after reuse.
func TestRecycledStacklessIgnoresPredecessorEventWake(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	var victim, heir *Proc
	var wokeAt time.Duration
	env.Spawn("victim", steps(
		func(p *Proc) bool { victim = p; return p.BeginWaitTimeout(ev, time.Millisecond) },
		then(func(p *Proc) {
			if p.OK() {
				t.Error("event fired during victim's wait")
			}
		}), // dies at 1ms leaving its stale waiter registered on ev
	))
	env.After(2*time.Millisecond, func() {
		env.Spawn("heir", steps(
			func(p *Proc) bool { heir = p; return p.BeginSleep(10 * time.Millisecond) },
			then(func(p *Proc) { wokeAt = p.Now() }),
		))
	})
	env.After(3*time.Millisecond, ev.Trigger) // aims a wake at the dead incarnation
	env.Run(0)
	if heir != victim {
		t.Fatal("heir did not reuse the dead proc; stale-wake scenario not exercised")
	}
	if wokeAt != 12*time.Millisecond {
		t.Errorf("heir woke at %v, want 12ms; predecessor's wake leaked through", wokeAt)
	}
}

// Same via a raw stale calendar wakeup aimed at the previous incarnation's
// block generation: the monotonic counter survives recycling.
func TestRecycledStacklessIgnoresPredecessorTimerWake(t *testing.T) {
	env := NewEnv(1)
	var victim, heir *Proc
	var staleTarget uint64
	env.Spawn("victim", steps(
		func(p *Proc) bool { victim = p; return p.BeginSleep(time.Millisecond) },
		then(func(p *Proc) { staleTarget = p.blocks }),
	))
	env.After(2*time.Millisecond, func() {
		env.Spawn("heir", steps(
			func(p *Proc) bool { heir = p; return p.BeginSleep(10 * time.Millisecond) },
			then(func(p *Proc) {
				if p.Now() != 12*time.Millisecond {
					t.Errorf("heir resumed at %v, want 12ms", p.Now())
				}
			}),
		))
	})
	env.After(3*time.Millisecond, func() {
		env.pushWake(env.now+time.Millisecond, victim, staleTarget)
	})
	env.Run(0)
	if heir != victim {
		t.Fatal("heir did not reuse the dead proc")
	}
	if heir.blocks <= staleTarget {
		t.Errorf("block counter went from %d to %d across recycling; it must only grow", staleTarget, heir.blocks)
	}
}

// Do costs one handoff per call however often the task blocks, and none
// when it never does; the blocks land on the caller's own counter.
func TestDoParksOncePerCall(t *testing.T) {
	env := NewEnv(1)
	var handoffs [3]uint64
	var blocksBefore, blocksAfter uint64
	var resumedAt time.Duration
	env.Go("caller", func(p *Proc) {
		handoffs[0] = env.Stats().Handoffs
		p.Do(steps(then(func(*Proc) {}))) // never blocks
		handoffs[1] = env.Stats().Handoffs
		blocksBefore = p.blocks
		p.Do(steps(
			func(p *Proc) bool { return p.BeginSleep(time.Millisecond) },
			func(p *Proc) bool { return p.BeginSleep(time.Millisecond) },
			func(p *Proc) bool { return p.BeginSleep(time.Millisecond) },
		))
		handoffs[2] = env.Stats().Handoffs
		blocksAfter, resumedAt = p.blocks, p.Now()
		p.Sleep(time.Millisecond) // the blocking forms still work afterwards
	})
	if end := env.Run(0); end != 4*time.Millisecond {
		t.Errorf("Run ended at %v, want 4ms", end)
	}
	if handoffs[1] != handoffs[0] {
		t.Errorf("a Do that never blocks cost %d handoffs", handoffs[1]-handoffs[0])
	}
	if handoffs[2]-handoffs[1] != 1 {
		t.Errorf("a Do that blocks three times cost %d handoffs, want 1", handoffs[2]-handoffs[1])
	}
	if blocksAfter-blocksBefore != 3 || resumedAt != 3*time.Millisecond {
		t.Errorf("Do ran %d blocks and returned at %v, want 3 at 3ms", blocksAfter-blocksBefore, resumedAt)
	}
}

// A blocking call from inside a step has no goroutine to park; it must
// fail loudly instead of deadlocking the driver.
func TestBlockingCallInsideStepPanics(t *testing.T) {
	env := NewEnv(1)
	env.Spawn("confused", steps(then(func(p *Proc) { p.Sleep(time.Millisecond) })))
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, "blocking call inside a task step") {
			t.Errorf("Run raised %q, want the blocking-call diagnosis", s)
		}
	}()
	env.Run(0)
}

// The hot paths stay allocation-free at steady state: a goroutine process's
// sleep cycle, a stackless sleep cycle, and a stackless spawn→run→die.
func TestKernelHotPathsDoNotAllocate(t *testing.T) {
	env := NewEnv(1)
	stop := false
	env.Spawn("ticker", &ticker{stop: &stop})
	env.Go("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(time.Microsecond)
		}
	})
	child := steps()
	env.Go("spawner", func(p *Proc) {
		for !stop {
			child.next = 0
			env.Spawn("child", child)
			p.Sleep(time.Microsecond)
		}
	})
	horizon := time.Millisecond
	env.Run(horizon) // warm the pools
	allocs := testing.AllocsPerRun(20, func() {
		horizon += time.Millisecond
		env.Run(horizon)
	})
	if allocs > 8 {
		t.Errorf("%.0f allocs per 1000 cycles of each hot path, want a small constant", allocs)
	}
	stop = true
	env.Run(0)
}

// ticker sleeps a microsecond at a time until told to stop.
type ticker struct{ stop *bool }

func (tk *ticker) Step(p *Proc) bool { return !*tk.stop && p.BeginSleep(time.Microsecond) }

// BenchmarkTaskSleepCycle is BenchmarkKernelSleepCycle for a stackless
// process: one calendar push + pop and an inline step per iteration, no
// goroutine handoff.
func BenchmarkTaskSleepCycle(b *testing.B) {
	env := NewEnv(1)
	env.Spawn("ticker", &ticker{stop: new(bool)})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(time.Duration(b.N) * time.Microsecond)
}
