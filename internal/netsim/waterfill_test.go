package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// sortedWaterfill is the oracle for Link.reallocate: the waterfill as it
// was computed before the link kept its flows in cap order. It stable-sorts
// a copy of the insertion-ordered flows by cap, gives each flow in that
// order min(cap, fair share of what the flows before it left), then scans
// for the earliest completion. It returns the order, each flow's rate, and
// the delay to the next completion (ok false when every rate is zero).
func sortedWaterfill(l *Link) (order []*Flow, rate map[*Flow]float64, next time.Duration, ok bool) {
	order = slices.Clone(l.flows)
	slices.SortStableFunc(order, func(a, b *Flow) int {
		switch {
		case a.cap < b.cap:
			return -1
		case a.cap > b.cap:
			return 1
		default:
			return 0
		}
	})
	rate = make(map[*Flow]float64, len(order))
	remainingCap := l.effectiveCapacity()
	for i, fl := range order {
		share := remainingCap / float64(len(order)-i)
		rate[fl] = math.Min(fl.cap, share)
		remainingCap -= rate[fl]
	}
	next = time.Duration(math.MaxInt64)
	for _, fl := range order {
		if rate[fl] <= 0 {
			continue
		}
		t := time.Duration(math.Ceil(fl.remaining / rate[fl] * 1e9))
		if t < time.Nanosecond {
			t = time.Nanosecond
		}
		if t < next {
			next = t
		}
	}
	return order, rate, next, next != time.Duration(math.MaxInt64)
}

// runLinkOps drives one link through ops, two bytes per operation (a code
// and an argument): flow arrivals with an equal cap, a distinct cap or no
// cap; aborts, as a timed-out transfer does; capacity steps, loss and flaps;
// and advancing the clock to the next calendar entry or a bounded step, so
// completions retire flows. Changes between two advances land in one
// instant and one flush. After every advance it requires the flushed link
// to match sortedWaterfill bit for bit: byCap in the oracle's order, every
// rate, and the armed completion instant.
func runLinkOps(t *testing.T, ops []byte) {
	env := NewEnv(1)
	l := env.NewLink("l", 1e6)
	p := &Proc{env: env} // never blocked: the completions' wakes are dropped
	var live []*Flow
	check := func() {
		t.Helper()
		order, rate, next, ok := sortedWaterfill(l)
		if !slices.Equal(l.byCap, order) {
			t.Fatalf("at %v: byCap is not the stable sort of the flows by cap", env.now)
		}
		for i, fl := range l.flows {
			if math.Float64bits(fl.rate) != math.Float64bits(rate[fl]) {
				t.Fatalf("at %v: flow %d (cap %v) has rate %v, the oracle %v", env.now, i, fl.cap, fl.rate, rate[fl])
			}
		}
		en := l.next.en
		armed := en != nil && en.seq == l.next.seq
		switch {
		case ok != armed:
			t.Fatalf("at %v: completion armed = %v, the oracle's = %v", env.now, armed, ok)
		case ok && en.at != l.lastUpd+next:
			t.Fatalf("at %v: completion armed for %v, the oracle's at %v", env.now, en.at, l.lastUpd+next)
		}
	}
	for ; len(ops) >= 2; ops = ops[2:] {
		// Flows retired by a completion go back to the pool, as Proc.resolve
		// does when their wake is dispatched.
		live = slices.DeleteFunc(live, func(fl *Flow) bool {
			done := fl.done
			if done {
				env.freeFlow(fl)
			}
			return done
		})
		arg := int(ops[1])
		switch ops[0] % 10 {
		case 0:
			live = append(live, l.start(p, float64(arg+1)*997, 50_000))
		case 1:
			live = append(live, l.start(p, float64(arg+1)*997, float64(arg%16+1)*20_000))
		case 2:
			live = append(live, l.start(p, float64(arg+1)*997, 0))
		case 3:
			if len(live) > 0 {
				fl := live[arg%len(live)]
				live = slices.DeleteFunc(live, func(g *Flow) bool { return g == fl })
				l.abort(fl)
				env.freeFlow(fl)
			}
		case 4:
			l.SetCapacityFactor(float64(arg) / 64)
		case 5:
			l.SetLoss(float64(arg) / 200)
		case 6:
			l.SetDown(arg%2 == 0)
		default:
			until := env.now + time.Duration(arg+1)*time.Millisecond
			if len(env.cal) > 0 {
				until = min(until, env.cal[0].at)
			}
			env.Run(until)
			check()
		}
	}
	env.Run(0)
	check()
}

// TestWaterfillMatchesSortedOracle runs seeded operation sequences through
// runLinkOps: the order kept at insert, the one-pass waterfill and the
// re-keyed completion must equal the sort-then-waterfill oracle after
// every flush.
func TestWaterfillMatchesSortedOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*600)
		rng.Read(ops)
		runLinkOps(t, ops)
	}
}

// FuzzLinkOps is TestWaterfillMatchesSortedOracle over arbitrary operation
// sequences.
func FuzzLinkOps(f *testing.F) {
	f.Add([]byte{0, 9, 0, 9, 2, 50, 1, 3, 7, 0, 3, 1, 7, 200, 6, 0, 7, 5, 6, 1, 9, 255})
	f.Add([]byte{2, 1, 2, 1, 4, 32, 5, 40, 1, 7, 8, 0, 8, 0, 8, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		runLinkOps(t, ops)
	})
}
