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

// rank10K is the GenConfig population.SampleAt gives a Rank10K site.
var rank10K = content.GenConfig{Pages: 60, Queries: 120, Binaries: 8, LargeObjects: 4,
	MaxLargeObjectSize: 400 * 1024}

// generated keeps BenchmarkGenerate's result live.
var generated *content.Site

// BenchmarkGenerate builds one Rank10K site: its size and kind columns and
// its link slab, the part of every campaign job's sample that is the site.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generated = content.Generate("bench.example.net", int64(i), rank10K)
	}
}

// BenchmarkSiteFind resolves a base, a query and an image URL, as the
// simulated server does for every request: a generated site parses the
// URL, a NewSite site of the same objects hashes it.
func BenchmarkSiteFind(b *testing.B) {
	gen := content.Generate("bench.example.net", 1, rank10K)
	lab, err := content.NewSite(gen.Host, gen.Base, gen.Objects())
	if err != nil {
		b.Fatal(err)
	}
	urls := []struct{ name, url string }{
		{"base", "/index.html"}, {"query", "/search.cgi?q=item042"}, {"image", "/img/pic117.jpg"},
	}
	for _, site := range []struct {
		name string
		s    *content.Site
	}{{"generated", gen}, {"map", lab}} {
		for _, u := range urls {
			b.Run(site.name+"/"+u.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, ok := site.s.Find(u.url); !ok {
						b.Fatalf("%s not found", u.url)
					}
				}
			})
		}
	}
}
