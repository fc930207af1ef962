package dist

import (
	"fmt"
	"os"
	"path/filepath"

	"mfc/internal/campaign"
)

// Cross-store merging: workers that cannot share a filesystem each run
// against their own campaign directory (same plan, disjoint or even
// overlapping job subsets) and the stores are merged afterwards — the
// "mergeable distributed summaries" pattern. Determinism carries over
// unchanged: records are pure functions of (plan, job) and every reader
// folds campaign.Reader's (shard, job)-ordered, deduplicated stream, so
// the report over any collection of stores whose records union to the
// full plan (campaign.Summarize over all of them) is byte-identical to
// the single-process run's report.

// Merge consolidates one or many store dirs into a fresh campaign
// directory at out: the shared plan, every unique record rewritten in
// (shard, job) order.
// The output is itself a valid campaign dir — reportable, resumable, and
// deterministic: any collection of stores holding the same record union
// merges to byte-identical shard files. out must not already contain
// records (merging into a live store would duplicate lines pointlessly).
func Merge(dirs []string, out string) error {
	r, err := campaign.OpenReader(dirs...)
	if err != nil {
		return err
	}
	_, err = MergeReader(r, out)
	return err
}

// MergeReader is Merge over an opened reader, for callers that want what
// it counted: it returns the number of records written, and r.Skipped
// afterwards tells what the sources held besides.
func MergeReader(r *campaign.Reader, out string) (done int, err error) {
	plan := r.Plan()
	if ents, err := os.ReadDir(out); err == nil && len(ents) > 0 {
		// An existing plan.json is fine only if it is the same plan and
		// the shards directory is empty.
		if p, err := campaign.LoadPlan(out); err != nil || !plan.Same(p) {
			return 0, fmt.Errorf("dist: merge target %s is not empty", out)
		}
		if shards, err := os.ReadDir(filepath.Join(out, "shards")); err == nil && len(shards) > 0 {
			return 0, fmt.Errorf("dist: merge target %s already holds records", out)
		}
	}
	if err := plan.Save(out); err != nil {
		return 0, err
	}
	dst, err := campaign.OpenStore(out, plan.ShardJobs)
	if err != nil {
		return 0, err
	}
	defer dst.Close()

	for k := range plan.Shards() {
		// Full: merged shards are rewritten with their Result payloads.
		recs, err := r.Shard(k, true)
		if err != nil {
			return 0, err
		}
		for i := range recs {
			if err := dst.Append(&recs[i]); err != nil {
				return 0, err
			}
		}
		done += len(recs)
	}
	return done, nil
}
