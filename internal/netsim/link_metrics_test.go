package netsim

import (
	"testing"
	"time"
)

func TestLinkUtilizationAndCounters(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	env.Go("x", func(p *Proc) {
		l.Transfer(p, 500, 0) // busy 0..0.5s
		p.Sleep(500 * time.Millisecond)
	})
	env.Run(0)
	if u := l.Utilization(); u < 0.45 || u > 0.55 {
		t.Errorf("Utilization = %v, want ~0.5", u)
	}
	if l.FlowsCompleted() != 1 {
		t.Errorf("FlowsCompleted = %d", l.FlowsCompleted())
	}
	if got := l.BytesSent(); got < 499.9 || got > 500.1 {
		t.Errorf("BytesSent = %v", got)
	}
	if l.Name() != "up" || l.Capacity() != 1000 {
		t.Error("accessors wrong")
	}
}

func TestLinkMaxActiveTracksPeak(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1e6)
	for i := 0; i < 7; i++ {
		env.Go("x", func(p *Proc) { l.Transfer(p, 1e5, 0) })
	}
	env.Run(0)
	if l.MaxActive() != 7 {
		t.Errorf("MaxActive = %d, want 7", l.MaxActive())
	}
	if l.Active() != 0 {
		t.Errorf("Active after drain = %d", l.Active())
	}
}

func TestStartFlowNonBlocking(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	var overlapped bool
	env.Go("x", func(p *Proc) {
		ev := l.StartFlow(500, 0) // 0.5s in background
		p.Sleep(100 * time.Millisecond)
		if !ev.Triggered() {
			overlapped = true // still in flight: we really did overlap
		}
		p.Wait(ev)
		if got := p.Now(); got < 499*time.Millisecond {
			t.Errorf("flow completed too early: %v", got)
		}
	})
	env.Run(0)
	if !overlapped {
		t.Error("StartFlow blocked the caller")
	}
}

func TestZeroByteTransferCompletes(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	done := false
	env.Go("x", func(p *Proc) {
		l.Transfer(p, 0, 0) // clamps to 1 byte
		done = true
	})
	env.Run(0)
	if !done {
		t.Error("zero-byte transfer never completed")
	}
}

func TestLinkCapacityValidation(t *testing.T) {
	env := NewEnv(1)
	defer func() {
		if recover() == nil {
			t.Error("non-positive capacity accepted")
		}
	}()
	env.NewLink("bad", 0)
}

func TestResourceCapacityValidation(t *testing.T) {
	env := NewEnv(1)
	defer func() {
		if recover() == nil {
			t.Error("non-positive capacity accepted")
		}
	}()
	env.NewResource("bad", 0)
}

// FIFO fairness: waiters acquire strictly in arrival order.
func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource("r", 1)
	var order []int
	env.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(50 * time.Millisecond)
		r.Release()
	})
	for i := 1; i <= 5; i++ {
		i := i
		env.GoAfter("w", time.Duration(i)*time.Millisecond, func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	env.Run(0)
	for i := range order {
		if order[i] != i+1 {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestGoAfterStartsLater(t *testing.T) {
	env := NewEnv(1)
	var started time.Duration
	env.GoAfter("late", 42*time.Millisecond, func(p *Proc) { started = p.Now() })
	env.Run(0)
	if started != 42*time.Millisecond {
		t.Errorf("started at %v", started)
	}
}

func TestProcAccessors(t *testing.T) {
	env := NewEnv(1)
	env.Go("named", func(p *Proc) {
		if p.Name() != "named" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Env() != env {
			t.Error("Env accessor wrong")
		}
	})
	env.Run(0)
}
