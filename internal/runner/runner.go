// Package runner is a deterministic bounded worker pool for independent
// simulation jobs.
//
// The §5 population studies run ~1,300 single-site MFC experiments, each on
// its own netsim.Env with a seed derived from the site index alone. The jobs
// share nothing, so they can run on any number of OS threads — as long as
// the *aggregation* of their results stays in index order, the output is
// byte-identical to a sequential loop regardless of scheduling. Map and
// ForEach encode exactly that contract: fn(i) must depend only on i, results
// land in slot i, and callers fold the slice in order.
//
// Concurrency is bounded (default GOMAXPROCS), the context cancels stragglers,
// and the error for the lowest failing index is the one propagated, so a
// parallel run reports the same failure a sequential run would have hit first.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

type config struct {
	workers int
	shared  bool
}

// Option configures a Map or ForEach call.
type Option func(*config)

// Workers bounds the pool at n concurrent jobs. n <= 0 (and the absence of
// this option) means runtime.GOMAXPROCS(0).
func Workers(n int) Option {
	return func(c *config) { c.workers = n }
}

// Shared gates the call's extra workers on the process-wide pool, so
// arbitrarily nested sweeps cannot multiply worker counts: a nested sweep
// that finds the pool exhausted simply runs on its caller's goroutine.
//
// Mechanics: the calling goroutine always executes jobs itself (progress is
// never blocked on the pool, so nesting cannot deadlock), and additional
// workers are started only for slots acquired — without waiting — from a
// process-wide budget of GOMAXPROCS slots. Total sweep goroutines
// across every concurrent Shared call are therefore bounded by that
// budget plus one inline worker per caller, instead of the product
// of per-call pool sizes.
func Shared() Option {
	return func(c *config) { c.shared = true }
}

var (
	sharedMu   sync.Mutex
	sharedCap  = runtime.GOMAXPROCS(0)
	sharedUsed int
)

func tryAcquireShared() bool {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedUsed >= sharedCap {
		return false
	}
	sharedUsed++
	return true
}

func releaseShared() {
	sharedMu.Lock()
	sharedUsed--
	sharedMu.Unlock()
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a bounded worker pool and
// waits for completion. Jobs are claimed in index order but may finish in any
// order; fn must therefore not depend on the progress of other indices.
//
// If any fn returns an error, no index above it starts, the context of every
// in-flight job above it is canceled, in-flight jobs are awaited, and the
// error with the lowest index is returned — the same error a sequential loop
// over [0, n) would have returned first. A failure never disturbs the jobs
// below it: they are the ones a sequential loop would have run before
// reaching it, so they start (if already claimed) and finish under a live
// context. If the parent context is canceled, ForEach stops claiming new
// indices and returns ctx.Err().
func ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error, opts ...Option) error {
	if n <= 0 {
		return ctx.Err()
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// slot is one worker's cancelable context and the index it is running.
	// One context serves every job the worker runs: a failure at index i
	// cancels the slots whose job is above i, and indices are claimed in
	// increasing order, so whatever such a worker claims next is above i as
	// well and never starts.
	type slot struct {
		ctx    context.Context
		cancel context.CancelFunc
		cur    atomic.Int64
	}
	var (
		next     atomic.Int64
		lowest   atomic.Int64 // lowest failing index seen so far; n while none
		mu       sync.Mutex   // guards firstErr, slots and writes to lowest
		firstErr error        // the error at index lowest
		slots    []*slot
		wg       sync.WaitGroup
	)
	lowest.Store(int64(n))
	worker := func() {
		sl := &slot{}
		sl.cur.Store(-1)
		sl.ctx, sl.cancel = context.WithCancel(ctx)
		defer sl.cancel()
		mu.Lock()
		slots = append(slots, sl)
		mu.Unlock()
		for {
			i := next.Add(1) - 1
			if i >= int64(n) || ctx.Err() != nil {
				return
			}
			// Publish i as running, then look for a failure below it; a
			// failing worker records its index, then looks for jobs running
			// above it. Whichever order the two interleave in, at least one
			// side sees the other: i is dropped here or canceled there.
			sl.cur.Store(i)
			if i > lowest.Load() {
				return
			}
			if err := fn(sl.ctx, int(i)); err != nil {
				mu.Lock()
				if i < lowest.Load() {
					lowest.Store(i)
					firstErr = err
				}
				for _, o := range slots {
					if o.cur.Load() > i {
						o.cancel()
					}
				}
				mu.Unlock()
				return
			}
		}
	}
	// The caller's goroutine is always worker zero; extra workers beyond it
	// are unconditional normally, pool-gated under Shared.
	for w := 1; w < workers; w++ {
		if cfg.shared && !tryAcquireShared() {
			break
		}
		shared := cfg.shared
		wg.Add(1)
		go func() {
			defer wg.Done()
			if shared {
				defer releaseShared()
			}
			worker()
		}()
	}
	worker()
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map runs fn(ctx, i) for every i in [0, n) on a bounded worker pool and
// returns the results indexed by i. Because each result lands in its own
// slot, folding the returned slice front to back reproduces the sequential
// loop's aggregation exactly, whatever the scheduling was. On error the
// semantics are those of ForEach and the results are discarded.
func Map[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error), opts ...Option) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}
