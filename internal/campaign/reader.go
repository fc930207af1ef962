package campaign

import (
	"cmp"
	"fmt"
	"slices"
)

// Skipped counts the shard-file lines a scan did not turn into records:
// unparseable lines (a torn write from a kill), lines whose job index is
// out of range or belongs to another shard, and repeats of a job already
// seen (a double-measured shard, an overlapping store).
type Skipped struct {
	Torn, Foreign, Duplicate int
}

// UniqueByJob sorts recs by job and drops every repeat of a job in place,
// returning the shortened slice and the number dropped. A job's record is
// a pure function of (plan, job), so which copy survives is irrelevant:
// any fold over the result depends only on WHICH jobs are done — never on
// completion order, interruption history or how many workers raced.
func UniqueByJob(recs []Record) ([]Record, int) {
	byJob := func(a, b Record) int { return cmp.Compare(a.Job, b.Job) }
	// Reader.Shard's output, which the per-shard folds pass through here a
	// second time, is already sorted; the check is cheaper than the sort.
	if !slices.IsSortedFunc(recs, byJob) {
		slices.SortStableFunc(recs, byJob)
	}
	out := recs[:0]
	for i := range recs {
		if len(out) == 0 || out[len(out)-1].Job != recs[i].Job {
			out = append(out, recs[i])
		}
	}
	return out, len(recs) - len(out)
}

// Reader is the read side of one or many campaign directories holding the
// same plan. Every consumer of stored records — report, analyze, merge,
// resume's done-set — folds the stream Shard yields; nothing is opened
// for write, so a planned-but-unstarted or read-only directory reads fine.
//
// Not safe for concurrent use: Shard reuses one scanner.
type Reader struct {
	plan *Plan
	dirs []string
	sc   *ShardScanner
}

// OpenReader loads the plan of every dir and refuses any that differs from
// the first: records of different plans are not comparable.
func OpenReader(dirs ...string) (*Reader, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("campaign: no store directories given")
	}
	plan, err := LoadPlan(dirs[0])
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs[1:] {
		p, err := LoadPlan(dir)
		if err != nil {
			return nil, err
		}
		if !plan.Same(p) {
			return nil, fmt.Errorf("campaign: %s holds plan %q which differs from %s's plan %q; only stores of one plan can merge",
				dir, p.Name, dirs[0], plan.Name)
		}
	}
	return &Reader{plan: plan, dirs: dirs, sc: NewShardScanner()}, nil
}

// Plan returns the plan every directory shares.
func (r *Reader) Plan() *Plan { return r.plan }

// Skipped reports what the Shard calls so far have skipped.
func (r *Reader) Skipped() Skipped { return r.sc.Skipped }

// Shard returns shard k's records across every directory, in job order
// with duplicates dropped; a missing shard file is an empty shard. With
// full set each record carries its decoded Result, without it the payload
// is skipped unparsed. The slice is valid only until the next Shard call.
func (r *Reader) Shard(k int, full bool) ([]Record, error) {
	r.sc.recs = r.sc.recs[:0]
	for _, dir := range r.dirs {
		if err := r.sc.scan(shardPath(dir, k), r.plan.ShardJobs, k, r.plan.Jobs(), full); err != nil {
			return nil, err
		}
	}
	recs, dropped := UniqueByJob(r.sc.recs)
	r.sc.Skipped.Duplicate += dropped
	return recs, nil
}

// Done scans every shard once (compact) and reports which jobs hold a
// record. This scan — not the manifest, not a lease — is the authority
// resume trusts.
func (r *Reader) Done() ([]bool, error) {
	done := make([]bool, r.plan.Jobs())
	for k := 0; k < r.plan.Shards(); k++ {
		recs, err := r.Shard(k, false)
		if err != nil {
			return nil, err
		}
		for i := range recs {
			done[recs[i].Job] = true
		}
	}
	return done, nil
}

// StartInfo is the resume accounting of a done-set: how many jobs hold a
// record and how many remain per band.
func (p *Plan) StartInfo(done []bool) StartInfo {
	info := StartInfo{Total: p.Jobs(), PendingByBand: make(map[string]int)}
	for j, d := range done {
		if d {
			info.AlreadyDone++
		} else {
			info.PendingByBand[p.Cells[p.CellOf(j)].Band]++
		}
	}
	return info
}
