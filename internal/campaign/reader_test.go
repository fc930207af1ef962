package campaign

import (
	"errors"
	"testing"
	"time"

	"mfc/internal/clock/clocktest"
)

// Snapshot rescans at most once per debounce interval on its clock, and a
// scan that fails after one succeeded keeps serving the good value.
func TestSnapshotDebounce(t *testing.T) {
	clk := clocktest.New(time.Unix(0, 0))
	scans := 0
	var fail error
	s := Snapshot[int]{Debounce: time.Second, Clock: clk, Scan: func() (int, error) {
		scans++
		return scans, fail
	}}
	get := func(want, wantScans int) {
		t.Helper()
		if v, err := s.Get(); v != want || err != nil || scans != wantScans {
			t.Fatalf("Get = %d, %v after %d scans; want %d after %d", v, err, scans, want, wantScans)
		}
	}
	fail = errors.New("no store yet")
	if v, err := s.Get(); v != 0 || err != fail {
		t.Fatalf("Get before any good scan = %d, %v; want the zero value and the scan's error", v, err)
	}
	fail = nil
	get(2, 2) // a failed scan is not debounced
	clk.Advance(time.Second - time.Nanosecond)
	get(2, 2)
	clk.Advance(time.Nanosecond)
	get(3, 3)
	fail = errors.New("shard renamed mid-scan")
	clk.Advance(time.Second)
	get(3, 4)
}
