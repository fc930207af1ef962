package content

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
)

func testSite(t *testing.T) *Site {
	t.Helper()
	site, err := NewSite("test", "/index.html", []Object{
		{URL: "/index.html", Kind: KindText, Size: 4096,
			Links: []string{"/big.bin", "/q.cgi?id=1", "/deep.html", "/missing.html"}},
		{URL: "/deep.html", Kind: KindText, Size: 2048, Links: []string{"/pic.jpg"}},
		{URL: "/pic.jpg", Kind: KindImage, Size: 30_000},
		{URL: "/big.bin", Kind: KindBinary, Size: 500_000},
		{URL: "/q.cgi?id=1", Kind: KindQuery, Size: 900, Dynamic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestCrawlDiscoversAndClassifies(t *testing.T) {
	site := testSite(t)
	prof, err := Crawl(context.Background(), SiteFetcher{Site: site}, site.Host, site.Base, CrawlConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Discovered != 5 { // missing.html is skipped, others found
		t.Errorf("Discovered = %d, want 5", prof.Discovered)
	}
	if len(prof.LargeObjects) != 1 || prof.LargeObjects[0].URL != "/big.bin" {
		t.Errorf("LargeObjects = %+v", prof.LargeObjects)
	}
	if len(prof.SmallQueries) != 1 || prof.SmallQueries[0].URL != "/q.cgi?id=1" {
		t.Errorf("SmallQueries = %+v", prof.SmallQueries)
	}
	if !prof.HasLargeObject() || !prof.HasSmallQuery() {
		t.Error("Has* predicates wrong")
	}
	if prof.String() == "" {
		t.Error("String empty")
	}
}

func TestCrawlRespectsMaxObjects(t *testing.T) {
	site := testSite(t)
	prof, err := Crawl(context.Background(), SiteFetcher{Site: site}, site.Host, site.Base,
		CrawlConfig{MaxObjects: 2})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Discovered != 2 {
		t.Errorf("Discovered = %d, want 2", prof.Discovered)
	}
}

func TestCrawlRespectsMaxDepth(t *testing.T) {
	site := testSite(t)
	prof, err := Crawl(context.Background(), SiteFetcher{Site: site}, site.Host, site.Base,
		CrawlConfig{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1: index + its direct links; pic.jpg (depth 2) unreachable.
	for _, o := range prof.LargeObjects {
		if o.URL == "/pic.jpg" {
			t.Error("depth-2 object discovered despite MaxDepth=1")
		}
	}
	if prof.Discovered != 4 {
		t.Errorf("Discovered = %d, want 4", prof.Discovered)
	}
}

func TestCrawlCanceledContext(t *testing.T) {
	site := testSite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Crawl(ctx, SiteFetcher{Site: site}, site.Host, site.Base, CrawlConfig{}); err == nil {
		t.Error("canceled context accepted")
	}
}

// TestNewSiteProfileMatchesCrawl covers the links NewSite resolves that a
// generated site never has.
func TestNewSiteProfileMatchesCrawl(t *testing.T) {
	cases := []struct {
		name    string
		objects []Object
		want    int // objects the default crawl discovers
	}{
		{"unresolvable link", testSite(t).objects, 5},
		{"duplicate and self links", []Object{
			{URL: "/index.html", Links: []string{"/a.html", "/a.html", "/index.html", "/a.html"}},
			{URL: "/a.html", Links: []string{"/index.html", "/a.html", "/b.html"}},
			{URL: "/b.html"},
		}, 3},
		{"links on non-page objects", []Object{
			{URL: "/index.html", Links: []string{"/pic.jpg", "/q?x=1"}},
			{URL: "/pic.jpg", Kind: KindImage, Links: []string{"/hidden.html"}}, // HEAD only
			{URL: "/q?x=1", Kind: KindQuery, Size: 10, Dynamic: true, Links: []string{"/shown.html"}},
			{URL: "/hidden.html"},
			{URL: "/shown.html"},
		}, 4},
		{"Kind disagrees with Classify", []Object{
			{URL: "/index.html", Kind: KindImage, Links: []string{"/big.bin", "/q?y", "/page.html"}},
			{URL: "/big.bin", Kind: KindText, Size: 300_000, Links: []string{"/hidden.html"}},
			{URL: "/q?y", Kind: KindBinary, Size: 100, Links: []string{"/hidden.html"}},
			{URL: "/page.html", Kind: KindBinary, Size: 200_000},
			{URL: "/hidden.html"},
		}, 5},
	}
	for _, tc := range cases {
		site, err := NewSite(tc.name, "/index.html", tc.objects)
		if err != nil {
			t.Fatal(err)
		}
		RequireProfileMatchesCrawl(t, site)
		if got := site.Profile(CrawlConfig{}).Discovered; got != tc.want {
			t.Errorf("%s: Discovered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCrawlEmptySiteFails(t *testing.T) {
	site, err := NewSite("h", "/a", []Object{{URL: "/a"}})
	if err != nil {
		t.Fatal(err)
	}
	// A fetcher that fails everything.
	_, err = Crawl(context.Background(), failFetcher{}, site.Host, site.Base, CrawlConfig{})
	if err != ErrEmptyCrawl {
		t.Errorf("err = %v, want ErrEmptyCrawl", err)
	}
}

type failFetcher struct{}

func (failFetcher) Head(context.Context, string) (int64, error) {
	return 0, fmt.Errorf("nope")
}
func (failFetcher) Get(context.Context, string) (int64, []string, error) {
	return 0, nil, fmt.Errorf("nope")
}

// Property: the generator always yields a crawlable site whose profile has
// the requested number of large objects and at least one small query.
func TestGeneratorCrawlableProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := GenConfig{Pages: 10, Queries: 8, Binaries: 5, LargeObjects: 2}
		site := Generate("prop", seed, cfg)
		prof, err := Crawl(context.Background(), SiteFetcher{Site: site},
			site.Host, site.Base, CrawlConfig{MaxObjects: 1000, MaxDepth: 50})
		if err != nil {
			return false
		}
		return len(prof.LargeObjects) == 2 && len(prof.SmallQueries) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: generation is deterministic in (host, seed, cfg).
func TestGeneratorDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := Generate("h", seed, GenConfig{})
		b := Generate("h", seed, GenConfig{})
		if a.Len() != b.Len() {
			return false
		}
		ao, bo := a.Objects(), b.Objects()
		for i := range ao {
			if ao[i].URL != bo[i].URL || ao[i].Size != bo[i].Size || ao[i].Kind != bo[i].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: generated large objects respect the configured cap.
func TestGeneratorLargeObjectCapProperty(t *testing.T) {
	f := func(seed int64) bool {
		cap := int64(150 * 1024)
		site := Generate("h", seed, GenConfig{MaxLargeObjectSize: cap, LargeObjects: 3, Binaries: 5})
		for _, o := range site.Objects() {
			if o.IsLargeObject() && o.Size > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestProfileSorting(t *testing.T) {
	site, err := NewSite("h", "/i.html", []Object{
		{URL: "/i.html", Kind: KindText, Size: 100,
			Links: []string{"/a.bin", "/b.bin", "/q1?x", "/q2?x"}},
		{URL: "/a.bin", Kind: KindBinary, Size: 200_000},
		{URL: "/b.bin", Kind: KindBinary, Size: 900_000},
		{URL: "/q1?x", Kind: KindQuery, Size: 5000, Dynamic: true},
		{URL: "/q2?x", Kind: KindQuery, Size: 100, Dynamic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Crawl(context.Background(), SiteFetcher{Site: site}, site.Host, site.Base, CrawlConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.LargeObjects[0].URL != "/b.bin" {
		t.Errorf("large objects not sorted by size desc: %+v", prof.LargeObjects)
	}
	if prof.SmallQueries[0].URL != "/q2?x" {
		t.Errorf("small queries not sorted by size asc: %+v", prof.SmallQueries)
	}
}
