package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPlacesResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		got, err := Map(context.Background(), 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		}, Workers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	got, err := Map(context.Background(), 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for n=0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	err := ForEach(context.Background(), 64, func(_ context.Context, i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	}, Workers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds bound %d", p, workers)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Indices 3 and 7 fail; whatever order the pool ran them in, the
	// reported error must be index 3's — the one a sequential loop hits.
	for trial := 0; trial < 20; trial++ {
		err := ForEach(context.Background(), 16, func(_ context.Context, i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		}, Workers(8))
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("trial %d: err = %v, want job 3 failed", trial, err)
		}
	}
}

func TestForEachErrorCancelsRemainingJobs(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	err := ForEach(context.Background(), 10_000, func(_ context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	}, Workers(2))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := started.Load(); n >= 10_000 {
		t.Errorf("all %d jobs ran despite early error", n)
	}
}

// A job that blocks on ctx and returns ctx.Err() once a lower job's real
// failure cancels it is a casualty: the call reports the failure, not the
// cancellation echo.
func TestRealErrorNotMaskedByCancellation(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{})
	err := ForEach(context.Background(), 2, func(ctx context.Context, i int) error {
		if i == 1 {
			close(started)
			<-ctx.Done() // released by job 0's failure canceling the jobs above it
			return ctx.Err()
		}
		<-started
		return boom
	}, Workers(2))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the real failure, not the cancellation echo", err)
	}
}

// The schedule behind a 1-in-70 flake of TestForEachReturnsLowestIndexError:
// index 7 fails while index 3 is claimed but unfinished. A sequential loop
// reaches 3 first, so 3 must run to the end under a live context — a
// canceled one would turn its real failure into a cancellation echo — and
// its error is the one reported. Index 8 shows the failure has been
// processed: cancellation does reach the jobs above 7.
func TestForEachHigherFailureLeavesLowerJobsAlone(t *testing.T) {
	started3, started8 := make(chan struct{}), make(chan struct{})
	failed7 := make(chan struct{})
	var ctxErr3 error
	err := ForEach(context.Background(), 16, func(ctx context.Context, i int) error {
		switch i {
		case 3:
			close(started3)
			<-failed7
			ctxErr3 = ctx.Err()
			return errors.New("job 3 failed")
		case 7:
			<-started3
			<-started8
			return errors.New("job 7 failed")
		case 8:
			close(started8)
			<-ctx.Done() // job 7's failure, recorded and propagated
			close(failed7)
			return ctx.Err()
		}
		return nil
	}, Workers(4))
	if err == nil || err.Error() != "job 3 failed" {
		t.Errorf("err = %v, want job 3 failed", err)
	}
	if ctxErr3 != nil {
		t.Errorf("job 3's context was canceled by job 7's failure: %v", ctxErr3)
	}
}

func TestForEachParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- ForEach(ctx, 1_000_000, func(ctx context.Context, i int) error {
			if ran.Add(1) == 5 {
				cancel() // cancel mid-run from inside a job
			}
			return nil
		}, Workers(2))
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Errorf("all jobs ran despite cancellation (%d)", n)
	}
}

func TestForEachPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 100, func(_ context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 100 {
		t.Error("every job ran under a pre-canceled context")
	}
}

func TestMapDiscardsResultsOnError(t *testing.T) {
	got, err := Map(context.Background(), 4, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, errors.New("nope")
		}
		return i, nil
	}, Workers(1))
	if err == nil {
		t.Fatal("want error")
	}
	if got != nil {
		t.Fatalf("got = %v, want nil on error", got)
	}
}

// The documented contract: with fn depending only on its index, worker count
// must not change the result.
func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []int {
		out, err := Map(context.Background(), 500, func(_ context.Context, i int) (int, error) {
			return i*31 + 7, nil
		}, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 8, 32} {
		got := run(w)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d diverged at %d", w, i)
			}
		}
	}
}

// Nested Shared sweeps must not multiply worker counts: total concurrent
// jobs are bounded by the shared capacity plus the one inline worker every
// call runs on its caller's goroutine.
func TestSharedPoolBoundsNestedSweeps(t *testing.T) {
	SetSharedCapacity(2)
	defer SetSharedCapacity(0)

	var inFlight, peak atomic.Int64
	err := ForEach(context.Background(), 4, func(ctx context.Context, _ int) error {
		// Each outer job runs a whole inner sweep — the shape that used to
		// spin up workers^2 goroutines.
		return ForEach(ctx, 8, func(_ context.Context, _ int) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return nil
		}, Workers(8), Shared())
	}, Workers(4), Shared())
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 2 + the root caller's inline worker: never more than 3
	// leaf jobs in flight, where unshared nesting would reach 32.
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d exceeds shared capacity bound 3", p)
	}
}

// An exhausted shared pool must not deadlock or starve a sweep: the caller
// always makes progress inline.
func TestSharedPoolExhaustedStillCompletes(t *testing.T) {
	SetSharedCapacity(1)
	defer SetSharedCapacity(0)
	// Hold the only slot for the duration of the call.
	if !tryAcquireShared() {
		t.Fatal("could not take the only slot")
	}
	defer releaseShared()

	var ran atomic.Int64
	if err := ForEach(context.Background(), 64, func(_ context.Context, _ int) error {
		ran.Add(1)
		return nil
	}, Shared()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 64 {
		t.Errorf("ran %d of 64 jobs with pool exhausted", ran.Load())
	}
}

// Shared slots must be returned when a sweep finishes.
func TestSharedPoolSlotsReleased(t *testing.T) {
	SetSharedCapacity(4)
	defer SetSharedCapacity(0)
	for round := 0; round < 3; round++ {
		if err := ForEach(context.Background(), 16, func(_ context.Context, _ int) error {
			return nil
		}, Shared()); err != nil {
			t.Fatal(err)
		}
	}
	sharedMu.Lock()
	used := sharedUsed
	sharedMu.Unlock()
	if used != 0 {
		t.Errorf("%d shared slots leaked", used)
	}
}

// Worker-count invariance holds under Shared too: the pool only changes
// scheduling, never results.
func TestSharedWorkerInvariance(t *testing.T) {
	SetSharedCapacity(3)
	defer SetSharedCapacity(0)
	base, err := Map(context.Background(), 200, func(_ context.Context, i int) (int, error) {
		return i * 13, nil
	}, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Map(context.Background(), 200, func(_ context.Context, i int) (int, error) {
		return i * 13, nil
	}, Workers(16), Shared())
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != got[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}
