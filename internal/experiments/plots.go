package experiments

import (
	"fmt"
	"time"

	"mfc/internal/plot"
	"mfc/internal/population"
)

// Plot methods render the figure-shaped experiments as ASCII charts, the
// closest a terminal gets to the paper's actual figures.

// Plot draws the ideal-vs-measured tracking curves (Figure 4).
func (r *Figure4Result) Plot() string {
	var x, ideal, measured []float64
	for _, p := range r.Points {
		x = append(x, float64(p.Crowd))
		ideal = append(ideal, float64(p.Ideal)/float64(time.Millisecond))
		measured = append(measured, float64(p.Measured)/float64(time.Millisecond))
	}
	c := &plot.Chart{
		Title:  fmt.Sprintf("Figure 4 (%s): tracking the synthetic model", r.Model),
		XLabel: "crowd size",
		YLabel: "median increase (ms)",
		X:      x,
		Series: []plot.Series{{Name: "ideal", Y: ideal}, {Name: "measured", Y: measured}},
	}
	return c.Render()
}

// Plot draws the Figure 5 response-time curve.
func (r *Figure5Result) Plot() string {
	var x, resp []float64
	for _, p := range r.Points {
		x = append(x, float64(p.Crowd))
		resp = append(resp, float64(p.MedianResp)/float64(time.Millisecond))
	}
	c := &plot.Chart{
		Title:  "Figure 5: Large Object median response vs crowd",
		XLabel: "crowd size",
		YLabel: "ms",
		X:      x,
		Series: []plot.Series{{Name: "median response", Y: resp}},
	}
	return c.Render()
}

// Plot draws Figure 6's FastCGI-vs-Mongrel response curves and the FastCGI
// memory climb.
func (r *Figure6Result) Plot() string {
	var x, fc, mg, mem []float64
	for i, p := range r.FastCGI {
		x = append(x, float64(p.Crowd))
		fc = append(fc, float64(p.MedianResp)/float64(time.Millisecond))
		mem = append(mem, p.MemMB)
		if i < len(r.Mongrel) {
			mg = append(mg, float64(r.Mongrel[i].MedianResp)/float64(time.Millisecond))
		}
	}
	resp := &plot.Chart{
		Title:  "Figure 6: Small Query median response vs crowd",
		XLabel: "crowd size",
		YLabel: "ms",
		X:      x,
		Series: []plot.Series{{Name: "fastcgi", Y: fc}, {Name: "mongrel", Y: mg}},
	}
	memc := &plot.Chart{
		Title:  "Figure 6: FastCGI resident memory vs crowd (RAM = 1024 MB)",
		XLabel: "crowd size",
		YLabel: "MB",
		X:      x,
		Series: []plot.Series{{Name: "resident", Y: mem}},
	}
	return resp.Render() + "\n" + memc.Render()
}

// Plot draws a population figure as stacked bars per rank band.
func (r *PopulationResult) Plot() string {
	b := &plot.Bars{
		Title:  fmt.Sprintf("Figure %s: %v-stage stopping sizes (share of sites)", figures[r.Stage].num, r.Stage),
		Legend: population.BucketLabels,
	}
	for bi, h := range r.Bands {
		b.Labels = append(b.Labels, rankBands[bi].String())
		parts := make([]float64, len(population.BucketLabels))
		for i := range population.BucketLabels {
			parts[i] = share(h, i)
		}
		b.Parts = append(b.Parts, parts)
	}
	return b.Render()
}
