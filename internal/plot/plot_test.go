package plot

import (
	"strings"
	"testing"
)

func TestChartRender(t *testing.T) {
	c := &Chart{
		Title:  "response vs crowd",
		XLabel: "crowd",
		YLabel: "ms",
		X:      []float64{5, 10, 15, 20},
		Series: []Series{
			{Name: "ideal", Y: []float64{20, 45, 70, 95}},
			{Name: "measured", Y: []float64{21, 44, 69, 96}},
		},
	}
	out := c.Render()
	for _, want := range []string{"response vs crowd", "ideal", "measured", "legend", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 14 {
		t.Errorf("chart too short: %d lines", len(lines))
	}
}

func TestChartEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	if out := c.Render(); !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
}

func TestChartFlatSeriesDoesNotDivideByZero(t *testing.T) {
	c := &Chart{
		X:      []float64{1, 1, 1},
		Series: []Series{{Name: "flat", Y: []float64{5, 5, 5}}},
	}
	out := c.Render() // must not panic
	if out == "" {
		t.Error("no output")
	}
}

func TestBarsRender(t *testing.T) {
	b := &Bars{
		Title:  "Figure 7",
		Labels: []string{"rank-1-1K", "rank-100K-1M"},
		Parts: [][]float64{
			{0.1, 0.1, 0.8},
			{0.3, 0.2, 0.5},
		},
		Legend: []string{"10-20", "20-50", "NoStop"},
	}
	out := b.Render()
	for _, want := range []string{"Figure 7", "rank-1-1K", "#", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("bars missing %q:\n%s", want, out)
		}
	}
	// Bars are bounded by the pipe delimiters at barWidth.
	for _, line := range strings.Split(out, "\n") {
		if strings.Count(line, "|") == 2 {
			inner := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
			if len(inner) != barWidth {
				t.Errorf("bar width = %d, want %d: %q", len(inner), barWidth, line)
			}
		}
	}
}

func TestBarsOverflowClamped(t *testing.T) {
	b := &Bars{
		Labels: []string{"x"},
		Parts:  [][]float64{{0.7, 0.7}}, // sums past 1: must clamp
	}
	out := b.Render() // must not panic
	if !strings.Contains(out, "|") {
		t.Error("no bar rendered")
	}
}
