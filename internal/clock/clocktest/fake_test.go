package clocktest

import (
	"testing"
	"time"
)

// Advance fires timers and tickers in deadline order, each at its own
// deadline; a ticker re-arms, a timer does not, a stopped one never fires;
// Set steps the reading without firing or shortening anything.
func TestAdvanceFiresInTimeOrder(t *testing.T) {
	start := time.Unix(1000, 0)
	c := New(start)
	var fired []string
	note := func(name string, ch <-chan time.Time) {
		select {
		case at := <-ch:
			fired = append(fired, name+"@"+at.Sub(start).String())
		default:
		}
	}
	late := c.NewTimer(5 * time.Second)
	early := c.NewTimer(2 * time.Second)
	tick := c.NewTicker(3 * time.Second)
	dead := c.NewTimer(time.Second)
	if !dead.Stop() || dead.Stop() {
		t.Fatal("Stop on an armed timer must report true once")
	}
	c.BlockUntil(3)

	for _, step := range []time.Duration{2 * time.Second, time.Second, 2 * time.Second} {
		c.Advance(step)
		note("dead", dead.C)
		note("early", early.C)
		note("tick", tick.C)
		note("late", late.C)
	}
	want := []string{"early@2s", "tick@3s", "late@5s"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}

	// Two periods in one Advance: the second tick finds the first unread
	// and is dropped, like time.Ticker's.
	c.Advance(6 * time.Second)
	if at := <-tick.C; at.Sub(start) != 6*time.Second {
		t.Fatalf("tick after a double period carries %v, want the first missed deadline 6s", at.Sub(start))
	}
	note("tick", tick.C)
	if len(fired) != len(want) {
		t.Fatalf("a dropped tick was delivered: %v", fired)
	}

	// Stepped an hour back, the ticker still has its 1s to go.
	c.Set(c.Now().Add(-time.Hour))
	c.Advance(time.Second - time.Nanosecond)
	note("tick", tick.C)
	if len(fired) != len(want) {
		t.Fatalf("ticker fired early after a backward step: %v", fired)
	}
	c.Advance(time.Nanosecond)
	if at := <-tick.C; !at.Equal(c.Now()) {
		t.Fatalf("tick carries %v, clock reads %v", at, c.Now())
	}
	tick.Stop()
	c.Advance(time.Hour)
	note("tick", tick.C)
	if len(fired) != len(want) {
		t.Fatalf("a stopped ticker fired: %v", fired)
	}
	if at := <-c.NewTimer(0).C; !at.Equal(c.Now()) {
		t.Fatal("a zero timer must fire at once")
	}
}
