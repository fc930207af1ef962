package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mfc/internal/campaign"
	"mfc/internal/core"
	"mfc/internal/population"
)

// runOnDisk plans and runs a real Base-stage campaign in a fresh directory.
func runOnDisk(t *testing.T, band population.Band, sites int, seed int64) string {
	t.Helper()
	plan, err := campaign.NewPlan("prefix", []population.Band{band}, []core.Stage{core.StageBase}, nil, sites, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(context.Background(), dir, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The property the §5 figures rest on: a paper-sized figure is a prefix of
// the campaign at the same seed. Each band of Figure 7 must equal the
// report fold of an on-disk run of the same single-cell plan, and the first
// n records of a campaign planned with more sites per cell.
func TestFigureIsACampaignPrefix(t *testing.T) {
	const seed = 5
	f7, err := Figure7(seed)
	if err != nil {
		t.Fatal(err)
	}
	for bi, cell := range f7.Bands {
		_, sum, err := campaign.Summarize(runOnDisk(t, rankBands[bi], cell.N, seed))
		if err != nil {
			t.Fatal(err)
		}
		if sum.Done != cell.N || !reflect.DeepEqual(cell, sum.Cells[0]) {
			t.Errorf("%v: figure cell differs from the on-disk campaign of the same plan:\nfigure: %+v\ndisk:   %+v",
				rankBands[bi], cell, sum.Cells[0])
		}
	}

	cell := f7.Bands[2]
	r, err := campaign.OpenReader(runOnDisk(t, rankBands[2], cell.N+10, seed))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.Shard(0, false)
	if err != nil {
		t.Fatal(err)
	}
	prefix := campaign.NewCellSummary()
	for i := range recs[:cell.N] {
		prefix.Add(&recs[i])
	}
	if !reflect.DeepEqual(cell, prefix) {
		t.Errorf("%v: figure cell differs from the first %d sites of a %d-site campaign:\nfigure: %+v\nprefix: %+v",
			rankBands[2], cell.N, len(recs), cell, prefix)
	}
}

// A measurement that ends in an Error record fails the whole cell with the
// record's error, instead of being folded into the histogram.
func TestErrorRecordFailsTheCell(t *testing.T) {
	plan, err := campaign.NewPlan("bad", []population.Band{population.Rank1K}, []core.Stage{core.StageBase}, nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan.Cells[0].Scenario = "no-such-scenario" // past NewPlan's validation: every job errors
	sum, err := measurePlan(plan)
	if err == nil {
		t.Fatalf("errored jobs folded into a summary: %+v", sum)
	}
	for _, want := range []string{"no-such-scenario", "rank-1-1K-00000", "Base"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
