// Population study: a scaled-down §5 — measure the Base and Small Query
// stages against the first 25 servers of each rank band, and print the
// stopping-size histograms (Figures 7 and 8 at reduced sample counts; run
// cmd/mfc-experiments for the full-size versions). Each stage is an
// in-memory campaign plan, so these are the servers `mfc-campaign plan
// -seed 7` measures, and both stages see the same ones.
//
//	go run ./examples/population
package main

import (
	"fmt"
	"log"

	"mfc"
	"mfc/internal/campaign"
	"mfc/internal/population"
)

const perBand = 25 // sites per band (paper: ~100-150)

func main() {
	bands := []population.Band{
		population.Rank1K, population.Rank10K, population.Rank100K, population.Rank1M,
	}
	for _, stage := range []mfc.Stage{mfc.StageBase, mfc.StageSmallQuery} {
		plan, err := campaign.NewPlan("example", bands, []mfc.Stage{stage}, nil, perBand, 7)
		if err != nil {
			log.Fatal(err)
		}
		sum := campaign.NewSummary(plan)
		for j := 0; j < plan.Jobs(); j++ {
			rec := campaign.Measure(plan, j, nil)
			if rec.Err != "" {
				log.Fatalf("%s: %s", rec.Site, rec.Err)
			}
			sum.Cells[plan.CellOf(j)].Add(rec)
		}

		fmt.Printf("== %v stage, %d sites per band ==\n", stage, perBand)
		fmt.Printf("%-15s %8s %8s %8s\n", "band", "stop<=20", "stop<=50", "NoStop")
		for ci, cell := range plan.Cells {
			c := sum.Cells[ci]
			pct := func(n int64) float64 { return 100 * float64(n) / float64(c.Measured()) }
			fmt.Printf("%-15s %7.0f%% %7.0f%% %7.0f%%\n", cell.Band,
				pct(c.Buckets[0]), 100*c.StoppedFraction(), pct(c.Buckets[4]))
		}
		fmt.Println()
	}
	fmt.Println("paper's shape: popularity correlates with Base and Small Query robustness;")
	fmt.Println("Small Query degrades for a larger fraction than Base in every band.")
}
