package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"mfc/internal/campaign/dist/lease"
	"mfc/internal/clock"
)

// WorkDir runs one worker over the campaign directory dir: it claims
// result shards by file lease, measures their pending jobs and appends
// the records to the shared store. Any number of WorkDir callers — `run`,
// `resume`, `work -dir`, in one process or many, on one host or several
// over a shared filesystem — may target the same directory; they claim
// disjoint shards and poll for takeover opportunities while peers hold
// the remainder.
func WorkDir(ctx context.Context, dir string, opts WorkOptions) (*WorkStatus, error) {
	if opts.Owner == "" {
		opts.Owner = lease.DefaultOwner()
	}
	if opts.TTL <= 0 {
		opts.TTL = lease.DefaultTTL
	}
	opts.Clock = clock.Or(opts.Clock)
	src, err := OpenLeaseSource(opts.Clock, dir, opts.Owner, opts.TTL)
	if err != nil {
		return nil, err
	}
	defer src.Close()

	// The spiller's Close is deferred so a canceled worker still
	// force-closes open spans (partial) and flushes its spill file.
	opts.Spans.SetTrace(PlanTraceID(src.plan))
	spill, err := StartSpanSpill(opts.Clock, opts.Spans, dir, opts.SpanTee)
	if err != nil {
		return nil, err
	}
	defer spill.Close()
	return Work(ctx, src.plan, src, spill, opts)
}

// LeaseSource is the ShardSource over a shared campaign directory: a claim
// is a crash-safe file lease on a result shard (see the lease package),
// heartbeated at ttl/3; an owner that dies mid-shard goes stale and any
// peer takes the lease over, rescans the shard and finishes the remainder.
// Claim walks the shards in passes: every shard with pending jobs whose
// lease is free (or stale) is claimed as it is met. A pass that found
// pending shards but claimed none — all held by live peers — ends in
// ErrWait (a peer may finish, halt, or die and go stale); a pass that
// found nothing pending ends in ErrComplete.
//
// Correctness never rests on the lease: the shard scan, not the lease, is
// the authority on which jobs are done, and readers dedupe by job — so
// even a split-brain pair double-measuring a shard only wastes work.
type LeaseSource struct {
	clk   clock.Clock
	dir   string
	plan  *Plan
	store *Store
	owner string
	ttl   time.Duration

	reader *Reader // compact: pending scans never decode Result payloads

	start            int // first shard of every pass
	next             int // shards visited so far in this pass
	pending, claimed int // shards with missing jobs / leased by us, this pass
}

// OpenLeaseSource opens the campaign in dir for one worker named owner.
// Only a control plane (`serve`), which holds the exclusive "store" lease,
// makes it refuse the directory. Close the source to close the store.
func OpenLeaseSource(clk clock.Clock, dir, owner string, ttl time.Duration) (*LeaseSource, error) {
	plan, err := LoadPlan(dir)
	if err != nil {
		return nil, err
	}
	if lock, err := lease.Read(LeasesDir(dir), "store"); err == nil && !lock.Stale(clk.Now()) {
		return nil, fmt.Errorf("campaign: %s is locked by single-process run %q (a `serve` control plane holds its store lease); join it with `work -join` or wait for it to exit", dir, lock.Owner)
	}
	store, err := OpenStore(dir, plan.ShardJobs)
	if err != nil {
		return nil, err
	}
	// Start each worker's passes at a different shard (hashed from the
	// owner id) so K workers racing a fresh campaign spread across the
	// shard space instead of all queueing on shard 0's lease.
	h := fnv.New32a()
	h.Write([]byte(owner))
	return &LeaseSource{
		clk: clk, dir: dir, plan: plan, store: store, owner: owner, ttl: ttl,
		// Not NewShardScanner's 1 MB: this buffer lives as long as the
		// worker, and the simulations it runs beside keep so little heap
		// live that a resident megabyte shortens every GC cycle (+60%
		// collections on the run-clean benchmark). Longer lines grow a
		// per-scan buffer instead.
		reader: &Reader{plan: plan, dirs: []string{dir}, sc: &ShardScanner{buf: make([]byte, 0, 64<<10)}},
		start:  int(h.Sum32() % uint32(plan.Shards())),
	}, nil
}

// Close closes the store's shard appenders.
func (s *LeaseSource) Close() error { return s.store.Close() }

// pendingJobs scans shard k and returns, in job order, the jobs without a
// stored record (nil when the shard is full).
func (s *LeaseSource) pendingJobs(k int) ([]int, error) {
	recs, err := s.reader.Shard(k, false)
	if err != nil {
		return nil, err
	}
	lo, hi := s.plan.ShardRange(k)
	if len(recs) == hi-lo {
		return nil, nil
	}
	pending := make([]int, 0, hi-lo-len(recs))
	for j := lo; j < hi; j++ {
		if len(recs) > 0 && recs[0].Job == j {
			recs = recs[1:]
		} else {
			pending = append(pending, j)
		}
	}
	return pending, nil
}

func (s *LeaseSource) Claim(ctx context.Context) (*Claim, error) {
	shards := s.plan.Shards()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.next == shards {
			pending, claimed := s.pending, s.claimed
			s.next, s.pending, s.claimed = 0, 0, 0
			switch {
			case pending == 0:
				return nil, ErrComplete
			case claimed == 0:
				return nil, ErrWait
			}
		}
		k := (s.start + s.next) % shards
		s.next++
		jobs, err := s.pendingJobs(k)
		if err != nil {
			return nil, err
		}
		if jobs == nil {
			continue
		}
		s.pending++
		lk, err := lease.AcquireOn(s.clk, LeasesDir(s.dir), ShardLeaseName(k), s.owner, s.ttl)
		if lease.IsHeld(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		s.claimed++
		// Rescan after acquiring: the scan under the lease — not the
		// pass's earlier peek — is the authority on what still needs
		// running (the previous holder may have just finished the shard).
		if jobs, err = s.pendingJobs(k); err != nil {
			lk.Release()
			return nil, err
		}
		return &Claim{Shard: k, Takeover: lk.TookOver(), TTL: s.ttl, Jobs: jobs,
			Hold: &leaseHold{lk: lk, store: s.store, shard: k}}, nil
	}
}

// Survey scans every shard once (compact) for the resume accounting.
func (s *LeaseSource) Survey(context.Context) (StartInfo, error) {
	done, err := s.reader.Done()
	if err != nil {
		return StartInfo{}, err
	}
	return s.plan.StartInfo(done), nil
}

// leaseHold is a held shard lease plus the store its records append to.
// ErrFenced is lease.ErrLost, so the lease's own errors need no mapping.
// Giving the shard up, sealed or part-done, closes its appender first.
type leaseHold struct {
	lk    *lease.Handle
	store *Store
	shard int
}

func (h *leaseHold) Heartbeat(context.Context) error { return h.lk.Heartbeat() }

func (h *leaseHold) Persist(_ context.Context, recs ...*Record) error {
	return h.store.Append(recs...)
}

func (h *leaseHold) Seal(context.Context) error {
	cerr := h.store.CloseShard(h.shard)
	if err := h.lk.Release(); err != nil {
		return err
	}
	return cerr
}

// Release tolerates a lease already taken over in the release window:
// the shard has an owner, which is all releasing was for.
func (h *leaseHold) Release() error {
	cerr := h.store.CloseShard(h.shard)
	if err := h.lk.Release(); err != nil && !errors.Is(err, lease.ErrLost) {
		return err
	}
	return cerr
}
