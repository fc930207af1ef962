package netsim

import (
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	var woke time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(250 * time.Millisecond)
		woke = p.Now()
	})
	end := env.Run(0)
	if woke != 250*time.Millisecond {
		t.Errorf("woke at %v, want 250ms", woke)
	}
	if end != 250*time.Millisecond {
		t.Errorf("run ended at %v, want 250ms", end)
	}
}

func TestSleepZeroYields(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	env.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	env.Run(0)
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	env := NewEnv(1)
	fired := false
	env.After(time.Second, func() { fired = true })
	end := env.Run(400 * time.Millisecond)
	if fired {
		t.Error("callback fired before until")
	}
	if end != 400*time.Millisecond {
		t.Errorf("end = %v, want 400ms", end)
	}
	// Resume: the deferred entry must now run.
	env.Run(0)
	if !fired {
		t.Error("callback did not fire after resume")
	}
}

func TestTimerCancel(t *testing.T) {
	env := NewEnv(1)
	fired := false
	tm := env.After(time.Second, func() { fired = true })
	env.After(100*time.Millisecond, func() { tm.Cancel() })
	env.Run(0)
	if fired {
		t.Error("canceled timer fired")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		env := NewEnv(seed)
		var at []time.Duration
		for i := 0; i < 20; i++ {
			env.Go("p", func(p *Proc) {
				d := time.Duration(env.Rand().Intn(1000)) * time.Millisecond
				p.Sleep(d)
				at = append(at, p.Now())
			})
		}
		env.Run(0)
		return at
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	env := NewEnv(1)
	env.Go("boom", func(p *Proc) { panic("kaput") })
	defer func() {
		if r := recover(); r == nil {
			t.Error("Run did not re-panic on process panic")
		}
	}()
	env.Run(0)
}

func TestSamePriorityOrderIsFIFO(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.After(time.Millisecond, func() { order = append(order, i) })
	}
	env.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}
