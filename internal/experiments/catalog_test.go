package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the generated rows of EXPERIMENTS.md from this tree")

// headlines runs every catalog entry once, at the seed its entry pins, for
// both tests below (~10 s, most of it ab-check and the §5 cells).
var headlines = sync.OnceValue(func() [][]Metric {
	out := make([][]Metric, len(Catalog))
	for i, e := range Catalog {
		r, err := e.Run(e.Seed)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", e.ID, err))
		}
		out[i] = r.Headline()
	}
	return out
})

// within returns the bound that covers metric name, if the entry has one.
func (e Experiment) within(name string) (Bound, bool) {
	name, _, _ = strings.Cut(name, "#")
	for _, b := range e.Within {
		if b.Metric == name {
			return b, true
		}
	}
	return Bound{}, false
}

// TestPaperFidelity is the machine check on "the reproduction still matches
// the paper": every headline metric with a band in the catalog lies inside
// it at the entry's seed, and every band names a metric that is reported.
func TestPaperFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole catalog")
	}
	for i, e := range Catalog {
		covered := map[string]bool{}
		for _, m := range headlines()[i] {
			b, ok := e.within(m.Name)
			if !ok {
				continue
			}
			covered[b.Metric] = true
			if m.Value < b.Lo || m.Value > b.Hi {
				t.Errorf("%s: %s = %v, outside the catalog's band %s", e.ID, m.Name, m.Value, band(b))
			}
		}
		for _, b := range e.Within {
			if !covered[b.Metric] {
				t.Errorf("%s: band on %q matches no headline metric", e.ID, b.Metric)
			}
		}
	}
}

func num(v float64) string { return strconv.FormatFloat(math.Round(v*100)/100, 'f', -1, 64) }

func band(b Bound) string {
	if math.IsInf(b.Hi, 1) {
		return "≥ " + num(b.Lo)
	}
	return num(b.Lo) + "–" + num(b.Hi)
}

// catalogDoc renders the generated part of EXPERIMENTS.md: which seed each
// row was measured at, then one row per experiment — title, the paper's
// reading, and every headline metric with its band.
func catalogDoc() string {
	var seeds []int64
	bySeed := map[int64][]string{}
	for _, e := range Catalog {
		if bySeed[e.Seed] == nil {
			seeds = append(seeds, e.Seed)
		}
		bySeed[e.Seed] = append(bySeed[e.Seed], e.ID)
	}
	var seeded []string
	for _, s := range seeds {
		if s != 0 {
			seeded = append(seeded, fmt.Sprintf("`-seed %d` (%s)", s, strings.Join(bySeed[s], ", ")))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Rows are measured at %s; %s fix their own seeds, so `-seed` does not reach them.\n\n",
		strings.Join(seeded, " and "), strings.Join(bySeed[0], ", "))
	b.WriteString("| id | experiment | paper | measured (band it must stay in) |\n")
	b.WriteString("|----|------------|-------|---------------------------------|\n")
	for i, e := range Catalog {
		var cells []string
		for _, m := range headlines()[i] {
			cell := m.Name + " " + num(m.Value)
			if bound, ok := e.within(m.Name); ok {
				cell += " (" + band(bound) + ")"
			}
			cells = append(cells, cell)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", e.ID, e.Title, e.Paper, strings.Join(cells, ", "))
	}
	return b.String()
}

// TestExperimentsDoc keeps EXPERIMENTS.md's catalog rows equal, byte for
// byte, to what the catalog generates: a title, paper string, bound or
// measured number that changes without `make experiments` fails here.
func TestExperimentsDoc(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole catalog")
	}
	const path, begin, end = "../../EXPERIMENTS.md", "<!-- catalog:begin -->\n", "<!-- catalog:end -->\n"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(doc), begin)
	have, tail, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("%s lacks the %q … %q markers", path, strings.TrimSpace(begin), strings.TrimSpace(end))
	}
	want := catalogDoc()
	if have == want {
		return
	}
	if *update {
		if err := os.WriteFile(path, []byte(head+begin+want+end+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	haveLines, wantLines := strings.Split(have, "\n"), strings.Split(want, "\n")
	for i, w := range wantLines {
		if i >= len(haveLines) || haveLines[i] != w {
			h := "(missing)"
			if i < len(haveLines) {
				h = haveLines[i]
			}
			t.Fatalf("%s is stale (regenerate with `make experiments`); first differing line:\n have: %s\n want: %s", path, h, w)
		}
	}
	t.Fatalf("%s has %d lines after the generated rows that the catalog does not produce (regenerate with `make experiments`)",
		path, len(haveLines)-len(wantLines))
}
