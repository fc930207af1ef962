package campaign

import (
	"fmt"
	"io"
	"strings"

	"mfc/internal/population"
	"mfc/internal/stats"
)

// verdictNames indexes CellSummary.Verdicts; Error is the engine's own
// verdict for failed measurements.
var verdictNames = []string{"Stopped", "NoStop", "Unavailable", "Aborted", "Error"}

// VerdictNames lists the verdict labels in CellSummary.Verdicts index
// order. Shared with the analyze package so verdict coding cannot drift.
func VerdictNames() []string { return verdictNames }

// VerdictIndex maps a verdict label to its VerdictNames index; unknown
// labels map to the Error slot, like the report fold.
func VerdictIndex(verdict string) int {
	for i, name := range verdictNames {
		if verdict == name {
			return i
		}
	}
	return len(verdictNames) - 1
}

// CellSummary is one cell's mergeable aggregate: everything the report
// prints, foldable record by record and shard by shard, so a 10k-site cell
// never needs its records co-resident in memory.
type CellSummary struct {
	N        int           `json:"n"` // records folded in
	Verdicts []int64       `json:"verdicts"`
	Buckets  []int64       `json:"buckets"` // §5 stopping-size histogram, measured sites only
	Stops    stats.IntHist `json:"stops"`   // confirmed stopping crowds
	Requests stats.Running `json:"requests"`
	SimTime  stats.Running `json:"sim_time_s"`
}

// NewCellSummary returns an empty cell partial.
func NewCellSummary() *CellSummary {
	return &CellSummary{Verdicts: make([]int64, len(verdictNames)), Buckets: make([]int64, len(population.BucketLabels))}
}

// Add folds one record in.
func (c *CellSummary) Add(rec *Record) {
	c.N++
	c.Verdicts[VerdictIndex(rec.Verdict)]++
	switch rec.Verdict {
	case "Stopped":
		c.Buckets[population.BucketOf(rec.Stop)]++
		c.Stops.Add(rec.Stop)
	case "NoStop":
		c.Buckets[population.BucketOf(0)]++
	}
	if rec.Err == "" {
		c.Requests.Add(float64(rec.Requests))
		c.SimTime.Add(rec.SimElapsed().Seconds())
	}
}

// Merge folds another cell summary in.
func (c *CellSummary) Merge(o *CellSummary) {
	c.N += o.N
	for i := range c.Verdicts {
		c.Verdicts[i] += o.Verdicts[i]
	}
	for i := range c.Buckets {
		c.Buckets[i] += o.Buckets[i]
	}
	c.Stops.Merge(&o.Stops)
	c.Requests.Merge(o.Requests)
	c.SimTime.Merge(o.SimTime)
}

// Measured is the number of sites whose stage ran to a verdict.
func (c *CellSummary) Measured() int64 { return c.Verdicts[0] + c.Verdicts[1] }

// StoppedFraction is the share of measured sites with a confirmed stop.
func (c *CellSummary) StoppedFraction() float64 {
	if m := c.Measured(); m > 0 {
		return float64(c.Verdicts[0]) / float64(m)
	}
	return 0
}

// Summary is a whole campaign's mergeable aggregate, cells indexed as in
// the plan.
type Summary struct {
	Cells []*CellSummary
	Done  int
	// Skipped is what the scan behind a Summarize passed over.
	Skipped Skipped
}

// NewSummary returns an all-empty summary shaped for plan's cells.
func NewSummary(plan *Plan) *Summary {
	s := &Summary{Cells: make([]*CellSummary, len(plan.Cells))}
	for i := range s.Cells {
		s.Cells[i] = NewCellSummary()
	}
	return s
}

// Merge folds another summary (same plan) in.
func (s *Summary) Merge(o *Summary) {
	for i := range s.Cells {
		s.Cells[i].Merge(o.Cells[i])
	}
	s.Done += o.Done
}

// SummarizeShard folds one shard's records — in job order, repeats
// dropped (UniqueByJob) — into a fresh summary.
func SummarizeShard(plan *Plan, recs []Record) *Summary {
	recs, _ = UniqueByJob(recs)
	s := NewSummary(plan)
	for i := range recs {
		s.Cells[plan.CellOf(recs[i].Job)].Add(&recs[i])
	}
	s.Done = len(recs)
	return s
}

// Summarize streams one or many stores of the same plan shard by shard —
// memory stays O(len(dirs) · ShardJobs) — merging per-shard summaries in
// shard order. The result is a pure function of (plan, union of completed
// jobs), whichever stores hold them.
func Summarize(dirs ...string) (*Plan, *Summary, error) {
	r, err := OpenReader(dirs...)
	if err != nil {
		return nil, nil, err
	}
	total := NewSummary(r.Plan())
	for k := 0; k < r.Plan().Shards(); k++ {
		// Compact scan: the report fold never looks inside Result, so the
		// payload — most of each line — is skipped, not decoded.
		recs, err := r.Shard(k, false)
		if err != nil {
			return nil, nil, err
		}
		total.Merge(SummarizeShard(r.Plan(), recs))
	}
	total.Skipped = r.Skipped()
	return r.Plan(), total, nil
}

// Report renders the campaign's aggregate report to w. The bytes are a
// pure function of (plan, set of completed jobs): an interrupted-and-
// resumed campaign prints exactly what an uninterrupted one does.
func Report(dir string, w io.Writer) error {
	plan, sum, err := Summarize(dir)
	if err != nil {
		return err
	}
	return RenderReport(w, plan, sum)
}

// RenderReport renders a summary (single- or merged multi-store) to w.
func RenderReport(w io.Writer, plan *Plan, sum *Summary) error {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q seed=%d: %d cells x %d sites = %d jobs, %d done\n",
		plan.Name, plan.Seed, len(plan.Cells), plan.Sites, plan.Jobs(), sum.Done)
	if sum.Done < plan.Jobs() {
		fmt.Fprintf(&b, "INCOMPLETE: %d jobs outstanding (resume to finish)\n", plan.Jobs()-sum.Done)
	}
	fmt.Fprintf(&b, "theta=%v step=%d max-crowd=%d clients=%d\n\n",
		plan.Threshold(), plan.Step, plan.MaxCrowd, plan.Clients)

	for ci, cell := range plan.Cells {
		c := sum.Cells[ci]
		fmt.Fprintf(&b, "cell %s: n=%d measured=%d\n", cell.Label(), c.N, c.Measured())
		if c.N == 0 {
			continue
		}
		b.WriteString("  verdicts:")
		for i, name := range verdictNames {
			if c.Verdicts[i] > 0 || i < 2 {
				fmt.Fprintf(&b, " %s=%d", name, c.Verdicts[i])
			}
		}
		b.WriteByte('\n')
		b.WriteString("  buckets:")
		for i, lbl := range population.BucketLabels {
			fmt.Fprintf(&b, " %s=%d", lbl, c.Buckets[i])
		}
		fmt.Fprintf(&b, "\n  stopped=%.1f%%", c.StoppedFraction()*100)
		if c.Stops.N > 0 {
			p50, _ := c.Stops.Quantile(0.5)
			p90, _ := c.Stops.Quantile(0.9)
			fmt.Fprintf(&b, " stop-p50=%.1f stop-p90=%.1f", p50, p90)
		}
		b.WriteByte('\n')
		if c.Requests.N > 0 {
			fmt.Fprintf(&b, "  requests/site: mean=%.1f min=%.0f max=%.0f\n",
				c.Requests.Mean(), c.Requests.Min, c.Requests.Max)
			fmt.Fprintf(&b, "  sim-time/site: mean=%.1fs max=%.1fs\n",
				c.SimTime.Mean(), c.SimTime.Max)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
