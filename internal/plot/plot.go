// Package plot renders small ASCII charts for the experiment harness: the
// paper's results are figures, and a terminal plot conveys a response-time
// curve or a stacked histogram far better than a bare table.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a chart. NaN values mark missing points —
// they are skipped when drawing and when ranging the axes, so series with
// different X support can share one chart.
type Series struct {
	Name string
	Y    []float64
}

// Chart is an XY chart with shared X values.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// A chart's plot area is chartHeight rows by chartWidth columns; a Bars
// row is barWidth cells wide.
const (
	chartHeight = 12
	chartWidth  = 60
	barWidth    = 50
)

var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Render draws the chart. Series are overlaid with distinct markers; axis
// ticks show the data range.
func (c *Chart) Render() string {
	h, w := chartHeight, chartWidth
	if len(c.X) == 0 || len(c.Series) == 0 {
		return c.Title + " (no data)\n"
	}

	minX, maxX := minMax(c.X)
	var ys []float64
	for _, s := range c.Series {
		ys = append(ys, s.Y...)
	}
	minY, maxY := minMax(ys)
	if minY > 0 {
		minY = 0 // response-time style charts anchor at zero
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i, x := range c.X {
			if i >= len(s.Y) {
				break
			}
			if math.IsNaN(s.Y[i]) {
				continue
			}
			col := int(math.Round((x - minX) / (maxX - minX) * float64(w-1)))
			row := int(math.Round((s.Y[i] - minY) / (maxY - minY) * float64(h-1)))
			r := h - 1 - row
			if r >= 0 && r < h && col >= 0 && col < w {
				grid[r][col] = m
			}
		}
	}

	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title + "\n")
	}
	yTop := fmt.Sprintf("%.4g", maxY)
	yBot := fmt.Sprintf("%.4g", minY)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", pad)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", pad, yTop)
		case h - 1:
			label = fmt.Sprintf("%*s", pad, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", w))
	fmt.Fprintf(&b, "%s  %-*.4g%*.4g\n", strings.Repeat(" ", pad), w/2, minX, w-w/2, maxX)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", pad), c.XLabel, c.YLabel)
	}
	legend := make([]string, 0, len(c.Series))
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "%s  legend: %s\n", strings.Repeat(" ", pad), strings.Join(legend, "   "))
	return b.String()
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 1
	}
	return lo, hi
}

// Bars renders a horizontal stacked-percentage bar per row — the shape of
// the paper's Figures 7-9 (stopping-size breakdowns per rank band).
type Bars struct {
	Title  string
	Labels []string    // row labels
	Parts  [][]float64 // per row: fractions summing to <= 1
	Legend []string    // names of the parts
}

var fills = []byte{'#', '=', '+', '-', '.', ' '}

// Render draws the stacked bars.
func (bb *Bars) Render() string {
	w := barWidth
	var b strings.Builder
	if bb.Title != "" {
		b.WriteString(bb.Title + "\n")
	}
	labelW := 0
	for _, l := range bb.Labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for i, label := range bb.Labels {
		if i >= len(bb.Parts) {
			break
		}
		fmt.Fprintf(&b, "%-*s |", labelW, label)
		used := 0
		for pi, frac := range bb.Parts[i] {
			n := int(math.Round(frac * float64(w)))
			if used+n > w {
				n = w - used
			}
			b.WriteString(strings.Repeat(string(fills[pi%len(fills)]), n))
			used += n
		}
		b.WriteString(strings.Repeat(" ", w-used))
		b.WriteString("|\n")
	}
	if len(bb.Legend) > 0 {
		fmt.Fprintf(&b, "%-*s  ", labelW, "")
		parts := make([]string, 0, len(bb.Legend))
		for i, name := range bb.Legend {
			parts = append(parts, fmt.Sprintf("%c %s", fills[i%len(fills)], name))
		}
		b.WriteString(strings.Join(parts, "   ") + "\n")
	}
	return b.String()
}
