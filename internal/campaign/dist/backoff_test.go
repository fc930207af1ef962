package dist

import (
	"testing"
	"time"

	"mfc/internal/campaign"
)

// The idle backoff doubles from base to the 16x cap, jitters every sleep
// over [d/2, d), and drops back to base on reset.
func TestBackoffDoublesJittersCapsResets(t *testing.T) {
	base := 100 * time.Millisecond
	b := campaign.NewBackoff(base, "worker-a")

	expect := base
	for i := 0; i < 8; i++ {
		d := b.Next()
		if d < expect/2 || d >= expect {
			t.Errorf("call %d: sleep %v outside [%v, %v)", i, d, expect/2, expect)
		}
		if expect < 16*base {
			expect *= 2
			if expect > 16*base {
				expect = 16 * base
			}
		}
	}
	// After enough doublings the delay is pinned at the cap.
	if d := b.Next(); d < 8*base || d >= 16*base {
		t.Errorf("capped sleep %v outside [%v, %v)", d, 8*base, 16*base)
	}

	b.Reset()
	if d := b.Next(); d < base/2 || d >= base {
		t.Errorf("post-reset sleep %v outside [%v, %v)", d, base/2, base)
	}
}

// Jitter is deterministic per owner (reproducible tests) and
// decorrelated across owners (no thundering herd).
func TestBackoffJitterSeededByOwner(t *testing.T) {
	base := time.Second
	a1, a2 := campaign.NewBackoff(base, "owner-a"), campaign.NewBackoff(base, "owner-a")
	bOther := campaign.NewBackoff(base, "owner-b")
	same, differ := true, false
	for i := 0; i < 16; i++ {
		d1, d2, d3 := a1.Next(), a2.Next(), bOther.Next()
		if d1 != d2 {
			same = false
		}
		if d1 != d3 {
			differ = true
		}
	}
	if !same {
		t.Error("two backoffs with the same owner diverged")
	}
	if !differ {
		t.Error("distinct owners produced identical jitter sequences")
	}
}
