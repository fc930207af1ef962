package content_test

import (
	"testing"

	"mfc/internal/content"
	"mfc/internal/population"
)

// BenchmarkSiteProfile is the simulated profiling crawl of each band's
// first site at the simulator's 200-object bound, the step before every
// campaign job's crowd ramp.
func BenchmarkSiteProfile(b *testing.B) {
	for _, band := range population.Bands {
		site := population.SampleAt(band, 0, 1).Site
		b.Run(band.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				site.Profile(content.CrawlConfig{MaxObjects: 200})
			}
		})
	}
}
