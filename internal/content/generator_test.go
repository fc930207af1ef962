package content

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The oracle below is the straightforward generator — fmt-formatted URLs,
// a dedupe map per page, jitter64's multiplier by repeated multiplication —
// kept as the reference the production Generate must match byte for byte.

func oracleGenerate(host string, seed int64, cfg GenConfig) *Site {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	var objects []Object

	// Query URLs.
	queryURLs := make([]string, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		u := fmt.Sprintf("/search.cgi?q=item%03d", i)
		size := clamp64(oracleJitter64(rng, cfg.MeanQuerySize), 64, SmallQueryMax-1)
		objects = append(objects, Object{URL: u, Kind: KindQuery, Size: size, Dynamic: true})
		queryURLs = append(queryURLs, u)
	}

	// Binaries; the first cfg.LargeObjects are sized into the LO band.
	binURLs := make([]string, 0, cfg.Binaries)
	for i := 0; i < cfg.Binaries; i++ {
		u := fmt.Sprintf("/files/dist%02d.tar.gz", i)
		var size int64
		if i < cfg.LargeObjects {
			size = LargeObjectMin + rng.Int63n(cfg.MaxLargeObjectSize-LargeObjectMin)
		} else {
			size = clamp64(oracleJitter64(rng, 40*1024), 1024, LargeObjectMin-1)
		}
		objects = append(objects, Object{URL: u, Kind: KindBinary, Size: size})
		binURLs = append(binURLs, u)
	}

	// Images (shared pool; pages link into it).
	nImages := cfg.Pages * cfg.ImagesPerPage
	if nImages > 200 {
		nImages = 200
	}
	imgURLs := make([]string, 0, nImages)
	for i := 0; i < nImages; i++ {
		u := fmt.Sprintf("/img/pic%03d.jpg", i)
		size := clamp64(oracleJitter64(rng, 24*1024), 512, LargeObjectMin-1)
		objects = append(objects, Object{URL: u, Kind: KindImage, Size: size})
		imgURLs = append(imgURLs, u)
	}

	// Pages. Page i links to a few later pages (tree-ish), some images,
	// an occasional binary and an occasional query.
	pageURL := func(i int) string {
		if i == 0 {
			return "/index.html"
		}
		return fmt.Sprintf("/pages/p%03d.html", i)
	}
	for i := 0; i < cfg.Pages; i++ {
		var links []string
		for j := i*2 + 1; j <= i*2+2 && j < cfg.Pages; j++ {
			links = append(links, pageURL(j))
		}
		for k := 0; k < cfg.ImagesPerPage && len(imgURLs) > 0; k++ {
			links = append(links, imgURLs[rng.Intn(len(imgURLs))])
		}
		if len(binURLs) > 0 && rng.Intn(3) == 0 {
			links = append(links, binURLs[rng.Intn(len(binURLs))])
		}
		if len(queryURLs) > 0 && rng.Intn(2) == 0 {
			links = append(links, queryURLs[rng.Intn(len(queryURLs))])
		}
		size := clamp64(oracleJitter64(rng, cfg.MeanPageSize), 256, 64*1024)
		objects = append(objects, Object{
			URL: pageURL(i), Kind: KindText, Size: size, Links: oracleDedupe(links),
		})
	}

	// The index must reach everything for the crawler: give it direct links
	// to a sample of binaries and queries too.
	idx := &objects[len(objects)-cfg.Pages] // page 0 appended first among pages
	idx.Links = oracleDedupe(append(idx.Links, binURLs...))
	if len(queryURLs) > 0 {
		idx.Links = oracleDedupe(append(idx.Links, queryURLs[0]))
	}

	site, err := NewSite(host, "/index.html", objects)
	if err != nil {
		panic("content: generator produced invalid site: " + err.Error())
	}
	return site
}

func oracleJitter64(rng *rand.Rand, mean int64) int64 {
	// Log-normal-ish: mean * 2^U(-1.5,1.5), heavy enough to vary sizes.
	f := rng.Float64()*3 - 1.5
	mult := 1.0
	for i := 0.0; i < f; i += 0.5 {
		mult *= 1.41
	}
	for i := 0.0; i > f; i -= 0.5 {
		mult /= 1.41
	}
	return int64(float64(mean) * mult)
}

func oracleDedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// requireSameSite fails unless got and want are the same site: Host, Base,
// Len and every object (Links included, nil and empty kept apart) in
// Objects() order.
func requireSameSite(t *testing.T, got, want *Site) {
	t.Helper()
	if got.Host != want.Host || got.Base != want.Base || got.Len() != want.Len() {
		t.Fatalf("site header: got (%q, %q, %d), want (%q, %q, %d)",
			got.Host, got.Base, got.Len(), want.Host, want.Base, want.Len())
	}
	g, w := got.Objects(), want.Objects()
	for i := range w {
		if !reflect.DeepEqual(g[i], w[i]) {
			t.Fatalf("object %d: got %+v, want %+v", i, g[i], w[i])
		}
	}
}

func TestJitter64MatchesOracle(t *testing.T) {
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 2000000; i++ {
		mean := int64(1 + i%50000)
		if got, want := jitter64(a, mean), oracleJitter64(b, mean); got != want {
			t.Fatalf("draw %d: jitter64 = %d, oracle %d", i, got, want)
		}
	}
}

// FuzzGenerate drives Generate and the oracle with the same seed and
// GenConfig and requires the same site, and the site's Profile to be its
// Crawl. Field values are folded into ranges that keep one run small but
// still cross every zero-pad width.
// Seed corpus: testdata/fuzz/FuzzGenerate plus the seeds below — the
// defaults, the population bands' configs, every field at or below zero,
// a page pool wider than the image cap, and every zero-pad width crossed.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), 0, 0, 0, 0, 0, int64(0), int64(0), int64(0))
	f.Add(int64(7), 60, 3, 8, 120, 4, int64(0), int64(0), int64(400*1024))
	f.Add(int64(2), 5, 0, 1, 4, 1, int64(0), int64(0), int64(0))
	f.Add(int64(3), 1, -1, 1, -1, 0, int64(0), int64(0), int64(0))
	f.Add(int64(4), 3, 39, 2, 2, 0, int64(0), int64(0), int64(LargeObjectMin))
	f.Add(int64(99), 1200, 7, 120, 1100, 3, int64(0), int64(0), int64(0))
	f.Add(int64(-5), 2, -1, -3, -1, 9, int64(-1), int64(-1), int64(LargeObjectMin))
	f.Fuzz(func(t *testing.T, seed int64, pages, imgs, bins, queries, large int, pageSize, querySize, maxLarge int64) {
		cfg := GenConfig{
			Pages: pages % 1500, ImagesPerPage: imgs % 40, Binaries: bins % 150,
			Queries: queries % 1500, LargeObjects: large % 150,
			MeanPageSize: pageSize, MeanQuerySize: querySize, MaxLargeObjectSize: maxLarge,
		}
		site := Generate("fuzz.example", seed, cfg)
		requireSameSite(t, site, oracleGenerate("fuzz.example", seed, cfg))
		RequireProfileMatchesCrawl(t, site)
	})
}

// FuzzSiteLookup holds a generated site's Find and Lookup to a map from
// each Objects() URL to its object: on every object's URL and on a fuzzed
// string, which is found exactly when the map holds it. Its configs are
// FuzzGenerate's seeds, folded the same way; its strings are canonical
// URLs on both sides of every zero-pad width, and spellings no object
// has: zero-padded too much or too little, page 0 under /pages/, an index
// at or past its segment's count, a query string on the base page, and
// the empty string.
func FuzzSiteLookup(f *testing.F) {
	configs := []struct {
		seed                           int64
		pages, imgs, bins, queries, lo int
		pageSize, querySize, maxLarge  int64
	}{
		{1, 0, 0, 0, 0, 0, 0, 0, 0},
		{7, 60, 3, 8, 120, 4, 0, 0, 400 * 1024},
		{2, 5, 0, 1, 4, 1, 0, 0, 0},
		{3, 1, -1, 1, -1, 0, 0, 0, 0},
		{4, 3, 39, 2, 2, 0, 0, 0, LargeObjectMin},
		{99, 1200, 7, 120, 1100, 3, 0, 0, 0},
		{-5, 2, -1, -3, -1, 9, -1, -1, LargeObjectMin},
	}
	urls := []string{
		"/index.html", "/pages/p001.html", "/search.cgi?q=item000", "/files/dist00.tar.gz", "/img/pic000.jpg",
		"/pages/p999.html", "/pages/p1000.html", "/search.cgi?q=item999", "/search.cgi?q=item1000",
		"/files/dist99.tar.gz", "/files/dist100.tar.gz", "/img/pic199.jpg", "/img/pic200.jpg",
		"/pages/p000.html", "/pages/p0001.html", "/pages/p01000.html", "/img/pic7.jpg", "/img/pic0007.jpg",
		"/search.cgi?q=item01000", "/files/dist0100.tar.gz", "/files/dist5.tar.gz", "/search.cgi?q=item",
		"/pages/p040.html", "/search.cgi?q=item020", "/files/dist06.tar.gz", "/img/pic120.jpg",
		"/index.html?x", "/pages/p+01.html", "/img/pic-01.jpg", "/search.cgi?q=item9999999999", "",
	}
	for _, c := range configs {
		for _, u := range urls {
			f.Add(c.seed, c.pages, c.imgs, c.bins, c.queries, c.lo, c.pageSize, c.querySize, c.maxLarge, u)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, pages, imgs, bins, queries, large int, pageSize, querySize, maxLarge int64, url string) {
		cfg := GenConfig{
			Pages: pages % 1500, ImagesPerPage: imgs % 40, Binaries: bins % 150,
			Queries: queries % 1500, LargeObjects: large % 150,
			MeanPageSize: pageSize, MeanQuerySize: querySize, MaxLargeObjectSize: maxLarge,
		}
		site := Generate("fuzz.example", seed, cfg)
		objs := site.Objects()
		oracle := make(map[string]Object, len(objs))
		for _, o := range objs {
			oracle[o.URL] = o
		}
		check := func(u string) {
			want, wantOK := oracle[u]
			i, ok := site.Find(u)
			if ok != wantOK {
				t.Fatalf("%+v: Find(%q) found %v, the map %v", cfg, u, ok, wantOK)
			}
			if ok && site.URL(i) != u {
				t.Fatalf("%+v: Find(%q) = %d, which renders %q", cfg, u, i, site.URL(i))
			}
			if got, ok := site.Lookup(u); ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: Lookup(%q) = %+v, %v; the map holds %+v, %v", cfg, u, got, ok, want, wantOK)
			}
		}
		for _, o := range objs {
			check(o.URL)
		}
		check(url)
	})
}
