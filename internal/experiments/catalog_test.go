package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated rows or testdata/catalog.golden from this tree")

// catalogRun is one catalog entry's report, reduced to what the tests
// below compare: its headline metrics and the sha256 of its printed text.
type catalogRun struct {
	headline []Metric
	digest   string
}

// runs runs every catalog entry once, at the seed its entry pins, for the
// tests below (~10 s, most of it ab-check and the §5 cells).
var runs = sync.OnceValue(func() []catalogRun {
	out := make([]catalogRun, len(Catalog))
	for i, e := range Catalog {
		r, err := e.Run(e.Seed)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", e.ID, err))
		}
		sum := sha256.Sum256([]byte(Text(r)))
		out[i] = catalogRun{headline: r.Headline(), digest: hex.EncodeToString(sum[:])}
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
		for _, m := range runs()[i].headline {
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
		for _, m := range runs()[i].headline {
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

// TestCatalogGolden pins every catalog report byte for byte: one line per
// entry, its id and the sha256 of what mfc-experiments prints for it at
// the entry's seed. Regenerate only for an intentional behaviour change:
//
//	go test ./internal/experiments -run TestCatalogGolden -update
func TestCatalogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole catalog")
	}
	const path = "testdata/catalog.golden"
	var got strings.Builder
	for i, e := range Catalog {
		fmt.Fprintf(&got, "%s %s\n", e.ID, runs()[i].digest)
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	for i, line := range gotLines {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("catalog report diverged from the pin: %s", line)
		}
	}
	t.Errorf("%s: %d pinned lines, the catalog produces %d", path, len(wantLines), len(gotLines))
}
