package campaign

import (
	"testing"
	"time"

	"mfc/internal/clock/clocktest"
	"mfc/internal/obs"
)

// The spiller drains its recorder on every tick of its clock and on every
// Kick, never in between, and Close flushes what is left with open spans
// closed as partial.
func TestSpanSpillerFlushesOnTickAndKick(t *testing.T) {
	clk := clocktest.New(time.Unix(0, 0))
	rec := obs.NewSpanRecorder("w", 0)
	batches := make(chan []string, 1)
	sp := NewSpanSpiller(clk, rec, func(spans []obs.Span) {
		var names []string
		for i := range spans {
			names = append(names, spans[i].Name)
		}
		batches <- names
	})
	expect := func(want ...string) {
		t.Helper()
		got := <-batches
		if len(got) != len(want) {
			t.Fatalf("flushed %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("flushed %v, want %v", got, want)
			}
		}
	}

	rec.Event("claim", "claim", 0, 0)
	clk.Advance(spanFlush - time.Nanosecond)
	select {
	case got := <-batches:
		t.Fatalf("flushed %v before the interval elapsed", got)
	default:
	}
	clk.Advance(time.Nanosecond)
	expect("claim")

	rec.Event("fence", "fence", 0, 0)
	sp.Kick()
	expect("fence")

	rec.Start("shard 0", "shard", 0, 0)
	done := make(chan struct{})
	go func() { sp.Close(); close(done) }()
	expect("shard 0")
	<-done
}
