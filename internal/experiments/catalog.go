package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Metric is one headline quantity of a report: the number EXPERIMENTS.md
// records, the benchmark reports and a Bound constrains.
type Metric struct {
	Name  string
	Value float64
}

// Report is what every experiment returns: the rows the paper prints and
// the few numbers that summarize them. A report that also has a
// Plot() string method gets it printed after the table (see Text).
type Report interface {
	Render() string
	Headline() []Metric
}

// Bound is the band a headline metric must stay in (both ends inclusive)
// for the reproduction to still match the paper. A Bound on "x" also
// covers "x#2", "x#3", ...: the same quantity on a repeated run (see nth).
type Bound struct {
	Metric string
	Lo, Hi float64
}

// Experiment is one figure, table, ablation or extension of the
// evaluation. mfc-experiments, BenchmarkExperiment, the generated rows of
// EXPERIMENTS.md and TestPaperFidelity are all loops over Catalog, so an
// experiment is declared here and nowhere else.
type Experiment struct {
	ID    string
	Title string
	// Paper is what the paper (or, for an ablation, the design claim under
	// test) reports for this experiment.
	Paper string
	// Seed is the seed EXPERIMENTS.md's row and TestPaperFidelity use. Zero
	// means the experiment fixes its own seeds and Run ignores its argument.
	Seed   int64
	Run    func(seed int64) (Report, error)
	Within []Bound
}

var inf = math.Inf(1)

// Catalog lists the evaluation in the paper's order (§3, §4, §5), then the
// ablations and extensions DESIGN.md motivates. To add an experiment, add
// its line here and a Headline method on its result type.
var Catalog = []Experiment{
	{ID: "f3", Title: "Figure 3: arrival-time spread of a 45-client crowd", Seed: 1, Run: seeded(Figure3),
		Paper:  "70% within 5 ms, 90% within 30 ms",
		Within: []Bound{{"spread70-ms", 0, 10}, {"spread90-ms", 0, 30}}},
	{ID: "f4a", Title: "Figure 4(a): tracking a linear response-time model", Seed: 1, Run: seeded(Figure4Linear),
		Paper:  "median tracks the ideal 5 ms/client curve",
		Within: []Bound{{"track-err-ms", 0, 10}}},
	{ID: "f4b", Title: "Figure 4(b): tracking an exponential response-time model", Seed: 1, Run: seeded(Figure4Exponential),
		Paper: "tracks to ~1 s at crowd 60"},
	{ID: "f5", Title: "Figure 5: Large Object lab workload", Seed: 1, Run: seeded(Figure5),
		Paper:  "~400 ms at crowd 50; CPU/mem/disk idle",
		Within: []Bound{{"median-at-50-ms", 300, 550}}},
	{ID: "f6", Title: "Figure 6: Small Query under FastCGI vs Mongrel", Seed: 1, Run: seeded(Figure6),
		Paper:  "FastCGI memory grows past 1 GB of RAM and response blows up; Mongrel flat",
		Within: []Bound{{"fcgi-at-50-ms", 250, inf}, {"fcgi-peak-MB", 1024, inf}}},
	{ID: "t1", Title: "Table 1: QTNP standard and MFC-mr runs", Run: fixed(Table1),
		Paper:  "θ=100 ms ×2: Base 20–25, SmallQuery 45–55, Large NoStop; MFC-mr θ=250 ms stops in requests",
		Within: []Bound{{"base-stop", 15, 35}, {"query-stop", 40, 60}}},
	{ID: "t2", Title: "Table 2: QTP synchronization spread", Run: fixed(Table2),
		Paper:  "90% of requests within 0.15–0.45 s; never even a 10 ms increase",
		Within: []Bound{{"max-median-incr-ms", 0, 10}}},
	{ID: "t3a", Title: "Table 3(a): Univ-2 at three times of day", Run: fixed(Table3Univ2),
		Paper:  "every stage stops at 110–150 requests (software artifact)",
		Within: []Bound{{"base-stop-reqs", 110, 150}, {"query-stop-reqs", 110, 150}}},
	{ID: "t3b", Title: "Table 3(b): Univ-3 at three times of day", Run: fixed(Table3Univ3),
		Paper:  "SmallQuery ≈30, Large NoStop, Base varies with background",
		Within: []Bound{{"query-stop-reqs", 20, 40}}},
	{ID: "u1", Title: "Univ-1 narrative run (§4.2)", Run: fixed(Univ1),
		Paper:  "Base and SmallQuery degrade at 5 clients (FirstExceed); Large stops at 25",
		Within: []Bound{{"large-stop", 15, 30}}},
	{ID: "f7", Title: "Figure 7: Base stage by Quantcast rank", Seed: 99, Run: seeded(Figure7),
		Paper: "stopped fraction grows 17%→45% with rank"},
	{ID: "f8", Title: "Figure 8: Small Query by Quantcast rank", Seed: 99, Run: seeded(Figure8),
		Paper: "strong rank correlation; 100K–1M ~54% stop"},
	{ID: "f9", Title: "Figure 9: Large Object by Quantcast rank", Seed: 99, Run: seeded(Figure9),
		Paper: "weak rank correlation; non-top ~45–55% stop"},
	{ID: "t4", Title: "Table 4: startup servers", Seed: 99,
		Run:    reports(seeded(Table4Base), seeded(Table4Query)),
		Paper:  "Base (n=107) 24% weak / 58% NoStop; SmallQuery (n=82) 33% weak / 44% NoStop",
		Within: []Bound{{"weak-pct(paper-24)", 12, 40}, {"nostop-pct(paper-58)", 40, inf}}},
	{ID: "t5", Title: "Table 5: phishing servers", Seed: 99, Run: seeded(Table5),
		Paper:  "Base (n=89) 12% weak / 50% NoStop",
		Within: []Bound{{"nostop-pct(paper-50)", 35, 65}}},
	{ID: "ab-check", Title: "Ablation: check phase vs none (false stops)", Run: fixed(AblationCheckPhase),
		Paper: "§2.2.3: the N−1/N/N+1 re-test suppresses stops caused by a transient"},
	{ID: "ab-quantile", Title: "Ablation: Large Object observe-fraction", Seed: 1, Run: seeded(AblationQuantile),
		Paper: "§2.2.3: 90% of clients must observe a Large Object degradation, or a shared remote bottleneck is blamed on the target"},
	{ID: "ab-step", Title: "Ablation: crowd step size", Seed: 1, Run: seeded(AblationStep),
		Paper: "§2.2.3: step 5 or 10; a finer step costs more requests for a smaller-or-equal stop"},
	{ID: "ext-stagger", Title: "Extension: staggered MFC", Seed: 1, Run: seeded(ExtensionStaggered),
		Paper: "§6: a weak server that stops under synchronized arrivals absorbs the same volume staggered"},
	{ID: "ext-mr", Title: "Extension: MFC-mr multiplier sweep", Seed: 1, Run: seeded(ExtensionMultiRequest),
		Paper: "§4.1: the stop in clients shrinks ~1/m; in requests it is invariant"},
	{ID: "predictive", Title: "Premise check: MFC stop vs real flash-crowd degradation", Seed: 1, Run: seeded(PredictiveValidation),
		Paper: "the MFC stop tracks where an organic surge degrades the same server: same ordering, within 4×"},
	{ID: "ext-compare", Title: "Use case (§1): comparing alternate deployments", Seed: 1, Run: seeded(ExtensionCompare),
		Paper: "§1: a bigger DB pool moves the SmallQuery stop, nothing else"},
	{ID: "ext-measurers", Title: "Extension: measurers probing cross-resource correlation (§6)", Seed: 1,
		Run:   reports(seeded(ExtensionMeasurers), seeded(ExtensionMeasurersShared)),
		Paper: "§6: independent resources stay flat under the crowd; a shared CPU degrades with it"},
	{ID: "ext-ddos", Title: "Extension: DDoS vulnerability reading (§6)", Seed: 1, Run: ExtensionDDoS,
		Paper:  "§6: a strong link over a weak cheap-request path is highly vulnerable (grade 3); the QTP farm is resilient (1)",
		Within: []Bound{{"weak-ddos-grade", 3, 3}, {"strong-ddos-grade", 1, 1}}},
}

// seeded adapts an experiment function that takes the seed.
func seeded[R Report](fn func(seed int64) (R, error)) func(int64) (Report, error) {
	return func(seed int64) (Report, error) {
		r, err := fn(seed)
		return r, err
	}
}

// fixed adapts an experiment function that fixes its own seeds.
func fixed[R Report](fn func() (R, error)) func(int64) (Report, error) {
	return seeded(func(int64) (R, error) { return fn() })
}

// reports runs several experiments in order at one seed and joins them
// into one Report; their metric names must not collide.
func reports(runs ...func(int64) (Report, error)) func(int64) (Report, error) {
	return func(seed int64) (Report, error) {
		var j joined
		for _, run := range runs {
			r, err := run(seed)
			if err != nil {
				return nil, err
			}
			j.tables = append(j.tables, r.Render())
			j.headline = append(j.headline, r.Headline()...)
		}
		return j, nil
	}
}

// joined is several tables printed as one report, a newline between them.
type joined struct {
	tables   []string
	headline []Metric
}

func (j joined) Render() string     { return strings.Join(j.tables, "\n") }
func (j joined) Headline() []Metric { return j.headline }

// Text is what mfc-experiments prints for a report: its table, then its
// plot if it has one.
func Text(r Report) string {
	if p, ok := r.(interface{ Plot() string }); ok {
		return r.Render() + "\n" + p.Plot()
	}
	return r.Render()
}

// nth names a metric of the i-th repeated run of one measurement: the first
// keeps the bare name, later ones append "#2", "#3", ...
func nth(name string, i int) string {
	if i == 0 {
		return name
	}
	return fmt.Sprintf("%s#%d", name, i+1)
}
