// Command mfc-experiments regenerates every table and figure of the
// paper's evaluation against the simulation substrate, plus the ablations
// and extensions DESIGN.md catalogs. See EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
//
// Usage:
//
//	mfc-experiments              # run everything
//	mfc-experiments -run f3,t1   # a comma-separated subset
//	mfc-experiments -list
//	mfc-experiments -run f3 -trace f3.json  # Perfetto trace of every run, in virtual time
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
	"mfc/internal/websim"
)

type experiment struct {
	id   string
	desc string
	run  func(seed int64) (string, error)
}

func catalog() []experiment {
	return []experiment{
		{"f3", "Figure 3: arrival-time spread of a 45-client crowd", func(seed int64) (string, error) {
			r, err := experiments.Figure3(seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"f4a", "Figure 4(a): tracking a linear response-time model", func(seed int64) (string, error) {
			r, err := experiments.Figure4(websim.LinearModel{Slope: 5 * time.Millisecond}, seed)
			if err != nil {
				return "", err
			}
			return r.Render() + "\n" + r.Plot(), nil
		}},
		{"f4b", "Figure 4(b): tracking an exponential response-time model", func(seed int64) (string, error) {
			r, err := experiments.Figure4(websim.ExponentialModel{Unit: 15 * time.Millisecond, Doubling: 10}, seed)
			if err != nil {
				return "", err
			}
			return r.Render() + "\n" + r.Plot(), nil
		}},
		{"f5", "Figure 5: Large Object lab workload", func(seed int64) (string, error) {
			r, err := experiments.Figure5(seed)
			if err != nil {
				return "", err
			}
			return r.Render() + "\n" + r.Plot(), nil
		}},
		{"f6", "Figure 6: Small Query under FastCGI vs Mongrel", func(seed int64) (string, error) {
			r, err := experiments.Figure6(seed)
			if err != nil {
				return "", err
			}
			return r.Render() + "\n" + r.Plot(), nil
		}},
		{"t1", "Table 1: QTNP standard and MFC-mr runs", func(seed int64) (string, error) {
			r, err := experiments.Table1()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"t2", "Table 2: QTP synchronization spread", func(seed int64) (string, error) {
			r, err := experiments.Table2()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"t3a", "Table 3(a): Univ-2 at three times of day", func(seed int64) (string, error) {
			r, err := experiments.Table3Univ2()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"t3b", "Table 3(b): Univ-3 at three times of day", func(seed int64) (string, error) {
			r, err := experiments.Table3Univ3()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"u1", "Univ-1 narrative run (§4.2)", func(seed int64) (string, error) {
			r, err := experiments.Univ1()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"f7", "Figure 7: Base stage by Quantcast rank", rankFigure(experiments.Figure7)},
		{"f8", "Figure 8: Small Query by Quantcast rank", rankFigure(experiments.Figure8)},
		{"f9", "Figure 9: Large Object by Quantcast rank", rankFigure(experiments.Figure9)},
		{"t4", "Table 4: startup servers", func(seed int64) (string, error) {
			b, q, err := experiments.Table4(seed)
			if err != nil {
				return "", err
			}
			return b.Render() + "\n" + q.Render(), nil
		}},
		{"t5", "Table 5: phishing servers", func(seed int64) (string, error) {
			r, err := experiments.Table5(seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ab-check", "Ablation: check phase vs none (false stops)", func(seed int64) (string, error) {
			r, err := experiments.AblationCheckPhase(8)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ab-quantile", "Ablation: Large Object observe-fraction", func(seed int64) (string, error) {
			r, err := experiments.AblationQuantile(seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ab-step", "Ablation: crowd step size", func(seed int64) (string, error) {
			r, err := experiments.AblationStep(seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ext-stagger", "Extension: staggered MFC", func(seed int64) (string, error) {
			r, err := experiments.ExtensionStaggered(seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ext-mr", "Extension: MFC-mr multiplier sweep", func(seed int64) (string, error) {
			r, err := experiments.ExtensionMultiRequest(seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"predictive", "Premise check: MFC stop vs real flash-crowd degradation", func(seed int64) (string, error) {
			r, err := experiments.PredictiveValidation(seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ext-compare", "Use case (§1): comparing alternate deployments", func(seed int64) (string, error) {
			cfg := experiments.DefaultCompareConfig()
			r, err := experiments.CompareDeployments(websim.QTSite(7), cfg, []experiments.Deployment{
				{Label: "qtnp-as-is", Config: websim.QTNPConfig()},
				{Label: "qtnp+8conns", Config: func() websim.Config {
					c := websim.QTNPConfig()
					c.DBConns = 8
					return c
				}()},
				{Label: "qtp-farm", Config: websim.QTPConfig()},
			}, seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ext-measurers", "Extension: measurers probing cross-resource correlation (§6)", func(seed int64) (string, error) {
			indep, err := experiments.ExtensionMeasurers(seed)
			if err != nil {
				return "", err
			}
			shared, err := experiments.ExtensionMeasurersShared(seed)
			if err != nil {
				return "", err
			}
			return indep.Render() + "\n" + shared.Render(), nil
		}},
		{"ext-ddos", "Extension: DDoS vulnerability reading (§6)", func(seed int64) (string, error) {
			weak, err := experiments.DDoSReport(websim.Univ3Config(), websim.Univ3Site(5), seed)
			if err != nil {
				return "", err
			}
			strong, err := experiments.DDoSReport(websim.QTPConfig(), websim.QTSite(7), seed)
			if err != nil {
				return "", err
			}
			return "--- weak target (univ3) ---\n" + weak + "\n--- strong target (qtp) ---\n" + strong, nil
		}},
	}
}

// rankFigure renders one §5 by-rank figure: its table, then its bar plot.
func rankFigure(figure func(seed int64) (*experiments.PopulationResult, error)) func(int64) (string, error) {
	return func(seed int64) (string, error) {
		r, err := figure(seed)
		if err != nil {
			return "", err
		}
		return r.Render() + "\n" + r.Plot(), nil
	}
}

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
	flushTrace := func() {
		if tracer == nil {
			return
		}
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

	cat := catalog()
	if *list {
		for _, e := range cat {
			fmt.Printf("%-12s %s\n", e.id, e.desc)
		}
		return
	}
	want := map[string]bool{}
	if *run != "all" {
		known := make([]string, len(cat))
		for i, e := range cat {
			known[i] = e.id
		}
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(known, id) {
				log.Fatalf("unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
			}
			want[id] = true
		}
	}
	failed := false
	for _, e := range cat {
		if *run != "all" && !want[e.id] {
			continue
		}
		t0 := time.Now()
		out, err := e.run(*seed)
		if err != nil {
			log.Printf("%s: FAILED: %v", e.id, err)
			failed = true
			continue
		}
		fmt.Printf("==== %s — %s (%.1fs) ====\n%s\n", e.id, e.desc, time.Since(t0).Seconds(), out)
	}
	flushTrace()
	if failed {
		os.Exit(1)
	}
}
