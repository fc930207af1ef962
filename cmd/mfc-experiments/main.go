// Command mfc-experiments regenerates the paper's evaluation against the
// simulation substrate: it is a loop over experiments.Catalog, the one
// table that declares every figure, table, ablation and extension (what an
// entry holds and how to add one: DESIGN.md "Experiment catalog"). The
// paper-vs-measured rows of EXPERIMENTS.md are generated from the same
// table (`make experiments`).
//
// Usage:
//
//	mfc-experiments                # run everything
//	mfc-experiments -run ID,ID     # a comma-separated subset
//	mfc-experiments -list          # ids and titles; "(fixed seeds)" marks those -seed does not reach
//	mfc-experiments -run ID -trace out.json  # Perfetto trace of every run, in virtual time
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"mfc"
	"mfc/internal/experiments"
	"mfc/internal/obs"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		seed     = flag.Int64("seed", 1, "base random seed")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of every MFC run (virtual time) to this file")
	)
	flag.Parse()

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		experiments.EnableTrace(func(label string) mfc.Observer {
			return tracer.RunObserver(label)
		})
	}

	if *list {
		for _, e := range experiments.Catalog {
			mark := ""
			if e.Seed == 0 {
				mark = " (fixed seeds)"
			}
			fmt.Printf("%-12s %s%s\n", e.ID, e.Title, mark)
		}
		return
	}
	known := make([]string, len(experiments.Catalog))
	for i, e := range experiments.Catalog {
		known[i] = e.ID
	}
	want := known
	if *run != "all" {
		want = strings.Split(*run, ",")
		for i, id := range want {
			want[i] = strings.TrimSpace(id)
			if !slices.Contains(known, want[i]) {
				log.Fatalf("unknown experiment %q (known: %s)", want[i], strings.Join(known, ", "))
			}
		}
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "seed" {
			return
		}
		var fixed []string
		for _, e := range experiments.Catalog {
			if e.Seed == 0 && slices.Contains(want, e.ID) {
				fixed = append(fixed, e.ID)
			}
		}
		if len(fixed) > 0 {
			fmt.Fprintf(os.Stderr, "note: -seed does not apply to %s: they fix their own seeds\n", strings.Join(fixed, ", "))
		}
	})
	failed := false
	for _, e := range experiments.Catalog {
		if !slices.Contains(want, e.ID) {
			continue
		}
		t0 := time.Now()
		r, err := e.Run(*seed)
		if err != nil {
			log.Printf("%s: FAILED: %v", e.ID, err)
			failed = true
			continue
		}
		fmt.Printf("==== %s — %s (%.1fs) ====\n%s\n", e.ID, e.Title, time.Since(t0).Seconds(), experiments.Text(r))
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		if _, err := tracer.WriteTo(f); err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace of %d events written to %s (load in Perfetto)\n", tracer.Len(), *traceOut)
	}
	if failed {
		os.Exit(1)
	}
}
