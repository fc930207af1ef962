package content_test

import (
	"context"
	"testing"

	"mfc/internal/content"
	"mfc/internal/population"
)

// BenchmarkCrawl is the simulated profiling crawl of each band's first
// site at the simulator's 200-object bound, the step before every
// campaign job's crowd ramp.
func BenchmarkCrawl(b *testing.B) {
	for _, band := range population.Bands {
		site := population.SampleAt(band, 0, 1).Site
		b.Run(band.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := content.Crawl(context.Background(), content.SiteFetcher{Site: site}, site.Host, site.Base,
					content.CrawlConfig{MaxObjects: 200}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
