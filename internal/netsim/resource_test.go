package netsim

import (
	"fmt"
	"testing"
	"time"
)

func TestResourceSerializesAtCapacityOne(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource("disk", 1)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		env.Go("job", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * time.Millisecond)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	env.Run(0)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(finish) != 3 {
		t.Fatalf("finish = %v", finish)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Errorf("finish[%d] = %v, want %v", i, finish[i], want[i])
		}
	}
}

func TestResourceParallelismAtCapacityN(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource("pool", 3)
	var finish []time.Duration
	for i := 0; i < 6; i++ {
		env.Go("job", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * time.Millisecond)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	env.Run(0)
	// Two waves of three.
	for i, want := range []time.Duration{10, 10, 10, 20, 20, 20} {
		if finish[i] != want*time.Millisecond {
			t.Errorf("finish[%d] = %v, want %vms", i, finish[i], want)
		}
	}
	if r.MaxQueueLen() != 3 {
		t.Errorf("MaxQueueLen = %d, want 3", r.MaxQueueLen())
	}
	if r.Acquired() != 6 {
		t.Errorf("Acquired = %d, want 6", r.Acquired())
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource("r", 1)
	var got []bool
	env.Go("a", func(p *Proc) {
		got = append(got, r.TryAcquire()) // true
		got = append(got, r.TryAcquire()) // false: full
		r.Release()
		got = append(got, r.TryAcquire()) // true again
		r.Release()
	})
	env.Run(0)
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

func TestAcquireTimeoutExpiresAndSkipsWaiter(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource("r", 1)
	var timedOut bool
	var laterGot bool
	env.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100 * time.Millisecond)
		r.Release()
	})
	env.SpawnAfter("impatient", time.Millisecond, steps(
		func(p *Proc) bool { return r.BeginAcquireTimeout(p, 10*time.Millisecond) },
		then(func(p *Proc) { timedOut = !p.OK() }),
	))
	env.GoAfter("patient", 2*time.Millisecond, func(p *Proc) {
		r.Acquire(p)
		laterGot = true
		r.Release()
	})
	env.Run(0)
	if !timedOut {
		t.Error("impatient should have timed out")
	}
	if !laterGot {
		t.Error("patient waiter never acquired; canceled waiter blocked the queue")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource("cpu", 2)
	env.Go("a", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(50 * time.Millisecond)
		r.Release()
	})
	env.Go("idle", func(p *Proc) { p.Sleep(100 * time.Millisecond) })
	env.Run(0)
	// One unit of two busy for 50ms of a 100ms run -> 0.25.
	if u := r.Utilization(); u < 0.24 || u > 0.26 {
		t.Errorf("Utilization = %v, want ~0.25", u)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release on idle resource did not panic")
		}
	}()
	r.Release()
}

// QueueLen is a live count, not a walk: it must track enqueues, hand-overs
// and timeouts exactly, with abandoned waiters skipped on release.
func TestQueueLenTracksTimeoutsAndHandovers(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource("r", 1)
	var lens []int
	var served []string
	env.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(10 * time.Millisecond)
		lens = append(lens, r.QueueLen()) // the impatient waiter gave up at 5ms
		r.Release()
	})
	env.Spawn("impatient", steps(
		func(p *Proc) bool { return r.BeginAcquireTimeout(p, 5*time.Millisecond) },
		then(func(p *Proc) {
			if p.OK() {
				t.Error("impatient waiter acquired")
			}
			lens = append(lens, r.QueueLen())
		}),
	))
	for _, name := range []string{"x", "y"} {
		name := name
		env.Go(name, func(p *Proc) {
			r.Acquire(p)
			served = append(served, name)
			lens = append(lens, r.QueueLen())
			r.Release()
		})
	}
	env.Run(0)
	if got, want := fmt.Sprint(lens), "[2 2 1 0]"; got != want {
		t.Errorf("QueueLen over time = %s, want %s", got, want)
	}
	if fmt.Sprint(served) != "[x y]" || r.MaxQueueLen() != 3 || r.QueueLen() != 0 {
		t.Errorf("served %v, max queue %d, final queue %d", served, r.MaxQueueLen(), r.QueueLen())
	}
}

// A queue that never empties must not strand its head: popping advances an
// index and the backing array is reused, not regrown forever.
func TestQueueBackingStaysBounded(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource("r", 1)
	for w := 0; w < 4; w++ {
		env.Go("worker", func(p *Proc) {
			for i := 0; i < 5000; i++ {
				r.Acquire(p)
				p.Sleep(time.Microsecond)
				r.Release()
			}
		})
	}
	env.Run(0)
	if c := cap(r.queue); c > 16 {
		t.Errorf("queue backing grew to %d slots for a 3-deep steady queue", c)
	}
}
