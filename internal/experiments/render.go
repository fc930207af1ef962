// Package experiments regenerates every table and figure in the paper's
// evaluation (§3 validation, §4 cooperating sites, §5 large-scale study)
// plus the ablations and extensions DESIGN.md motivates. Catalog declares
// each one once: the CLI, the benchmarks, EXPERIMENTS.md's rows and the
// paper-fidelity test are loops over it. Each experiment returns a
// structured result with a Render method that prints the same rows/series
// the paper reports and a Headline method with the numbers that summarize
// them. The §5 figures and tables are cells of internal/campaign at the
// paper's site counts: the first n sites of the band a 10k-site campaign
// measures.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// table is a minimal fixed-width ASCII table builder.
type table struct {
	title   string
	headers []string
	rows    [][]string
}

func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

func (t *table) add(cells ...string) {
	for len(cells) < len(t.headers) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

func (t *table) addf(format string, args ...any) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// ms renders a duration in whole milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", msf(d))
}

// msf is a duration in float milliseconds, the unit of every "-ms" metric.
func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stopStr renders a stopping size or NoStop with the probed maximum.
func stopStr(stopped bool, at, probedMax int) string {
	if stopped {
		return fmt.Sprintf("%d", at)
	}
	return fmt.Sprintf("NoStop (%d)", probedMax)
}
