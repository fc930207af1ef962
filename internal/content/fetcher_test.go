package content

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// SiteFetcher serves a Site to Crawl: the fetcher Site.Profile is checked
// against.
type SiteFetcher struct{ Site *Site }

// Head implements Fetcher.
func (sf SiteFetcher) Head(_ context.Context, url string) (int64, error) {
	o, ok := sf.Site.Lookup(url)
	if !ok {
		return 0, fmt.Errorf("content: %s: not found", url)
	}
	return o.Size, nil
}

// Get implements Fetcher.
func (sf SiteFetcher) Get(_ context.Context, url string) (int64, []string, error) {
	o, ok := sf.Site.Lookup(url)
	if !ok {
		return 0, nil, fmt.Errorf("content: %s: not found", url)
	}
	return o.Size, o.Links, nil
}

// crawlConfigs are the bounds Site.Profile is checked against Crawl
// under: the default, an object cap above and one below most sites' size,
// and two depth cuts.
var crawlConfigs = []CrawlConfig{
	{}, {MaxObjects: 200}, {MaxObjects: 7}, {MaxDepth: 2}, {MaxDepth: 1, MaxObjects: 50},
}

// RequireProfileMatchesCrawl fails unless s.Profile(cfg) equals Crawl over
// SiteFetcher{s} for every crawlConfigs bound.
func RequireProfileMatchesCrawl(t testing.TB, s *Site) {
	t.Helper()
	for _, cfg := range crawlConfigs {
		want, err := Crawl(context.Background(), SiteFetcher{Site: s}, s.Host, s.Base, cfg)
		if err != nil {
			t.Fatalf("%s %+v: Crawl: %v", s.Host, cfg, err)
		}
		if got := s.Profile(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v: Profile\n%+v\nCrawl\n%+v", s.Host, cfg, got, want)
		}
	}
}
