// Package dist holds the distributed edges of the campaign engine: the
// networked worker that joins a control plane over HTTP (WorkRemote) and
// the cross-store merge. The worker loop itself — claim a shard, measure
// its pending jobs, persist, seal — is campaign.Work, shared by every
// execution mode; Work here is its file-lease flavor under the name the
// distributed tooling has always used.
//
// Correctness never rests on a lease or a grant. Every record is a pure
// function of (plan, job index), and the report layer dedupes by job — so
// even a split-brain worker pair double-measuring a shard can only waste
// work, never change a byte of the merged report. Leases and grants exist
// to make duplicated work rare and takeover prompt.
package dist

import (
	"context"

	"mfc/internal/campaign"
)

// WorkOptions and WorkStatus are the shared engine's (see campaign.Work).
type (
	WorkOptions = campaign.WorkOptions
	WorkStatus  = campaign.WorkStatus
)

// Work runs one file-lease worker over the campaign directory dir; see
// campaign.WorkDir.
func Work(ctx context.Context, dir string, opts WorkOptions) (*WorkStatus, error) {
	return campaign.WorkDir(ctx, dir, opts)
}
