package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSingleFlowTakesBytesOverCapacity(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000) // 1000 B/s
	var done time.Duration
	env.Go("x", func(p *Proc) {
		l.Transfer(p, 500, 0)
		done = p.Now()
	})
	env.Run(0)
	if want := 500 * time.Millisecond; absDur(done-want) > time.Millisecond {
		t.Errorf("done = %v, want ~%v", done, want)
	}
}

func TestTwoEqualFlowsShareFairly(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Go("x", func(p *Proc) {
			l.Transfer(p, 500, 0)
			done[i] = p.Now()
		})
	}
	env.Run(0)
	// Each gets 500 B/s -> both complete at 1s.
	for i, d := range done {
		if want := time.Second; absDur(d-want) > 2*time.Millisecond {
			t.Errorf("done[%d] = %v, want ~%v", i, d, want)
		}
	}
}

func TestShortFlowLeavesAndLongFlowSpeedsUp(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	var doneShort, doneLong time.Duration
	env.Go("short", func(p *Proc) {
		l.Transfer(p, 100, 0)
		doneShort = p.Now()
	})
	env.Go("long", func(p *Proc) {
		l.Transfer(p, 1000, 0)
		doneLong = p.Now()
	})
	env.Run(0)
	// Both at 500 B/s until short finishes at t=0.2s (100 bytes).
	// Long then has 900 left at full 1000 B/s: +0.9s -> 1.1s.
	if want := 200 * time.Millisecond; absDur(doneShort-want) > 2*time.Millisecond {
		t.Errorf("doneShort = %v, want ~%v", doneShort, want)
	}
	if want := 1100 * time.Millisecond; absDur(doneLong-want) > 2*time.Millisecond {
		t.Errorf("doneLong = %v, want ~%v", doneLong, want)
	}
}

func TestPerFlowCapLimitsRate(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 10000)
	var done time.Duration
	env.Go("slowclient", func(p *Proc) {
		l.Transfer(p, 1000, 100) // capped to 100 B/s despite huge link
		done = p.Now()
	})
	env.Run(0)
	if want := 10 * time.Second; absDur(done-want) > 5*time.Millisecond {
		t.Errorf("done = %v, want ~%v", done, want)
	}
}

func TestCapRedistributionWaterFilling(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	// One flow capped at 100 B/s; the other should get the remaining 900.
	var doneCapped, doneFree time.Duration
	env.Go("capped", func(p *Proc) {
		l.Transfer(p, 100, 100)
		doneCapped = p.Now()
	})
	env.Go("free", func(p *Proc) {
		l.Transfer(p, 900, 0)
		doneFree = p.Now()
	})
	env.Run(0)
	if want := time.Second; absDur(doneCapped-want) > 5*time.Millisecond {
		t.Errorf("doneCapped = %v, want ~%v", doneCapped, want)
	}
	if want := time.Second; absDur(doneFree-want) > 5*time.Millisecond {
		t.Errorf("doneFree = %v, want ~%v", doneFree, want)
	}
}

func TestTransferTimeoutAborts(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 100)
	var ok bool
	var at time.Duration
	env.Spawn("x", steps(
		func(p *Proc) bool { return l.BeginTransferTimeout(p, 10000, 0, time.Second) }, // needs 100s
		then(func(p *Proc) { ok, at = p.OK(), p.Now() }),
	))
	env.Run(0)
	if ok {
		t.Error("BeginTransferTimeout reported success; want abort")
	}
	if at != time.Second {
		t.Errorf("aborted at %v, want 1s", at)
	}
	if l.Active() != 0 || l.FlowsCompleted() != 0 {
		t.Errorf("Active = %d, FlowsCompleted = %d after abort, want 0, 0", l.Active(), l.FlowsCompleted())
	}
	if got := l.BytesSent(); got != 100 {
		t.Errorf("BytesSent = %v after abort, want the 100 partial bytes", got)
	}
}

// Property: the link conserves bytes — total delivered equals the sum of all
// completed transfer sizes, for random flow sets.
func TestByteConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv(seed)
		l := env.NewLink("up", 1000+float64(rng.Intn(9000)))
		n := 2 + rng.Intn(20)
		total := 0.0
		completed := 0
		for i := 0; i < n; i++ {
			bytes := float64(1 + rng.Intn(100000))
			start := time.Duration(rng.Intn(1000)) * time.Millisecond
			total += bytes
			env.GoAfter("f", start, func(p *Proc) {
				l.Transfer(p, bytes, 0)
				completed++
			})
		}
		env.Run(0)
		if completed != n {
			return false
		}
		return math.Abs(l.BytesSent()-total) < 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: completion order matches size order for simultaneous equal-cap
// flows (smaller finishes first, never later).
func TestSmallerFlowNeverFinishesLaterProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv(seed)
		l := env.NewLink("up", 5000)
		type res struct {
			bytes float64
			done  time.Duration
		}
		n := 2 + rng.Intn(10)
		results := make([]res, n)
		for i := 0; i < n; i++ {
			i := i
			bytes := float64(100 + rng.Intn(50000))
			results[i].bytes = bytes
			env.Go("f", func(p *Proc) {
				l.Transfer(p, bytes, 0)
				results[i].done = p.Now()
			})
		}
		env.Run(0)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if results[i].bytes < results[j].bytes && results[i].done > results[j].done {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
