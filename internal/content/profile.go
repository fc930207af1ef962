package content

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Fetcher abstracts the HTTP access the crawler needs, so the profiling
// stage works identically against the simulator and a live site.
type Fetcher interface {
	// Head returns the size of the object at url (Content-Length).
	Head(ctx context.Context, url string) (size int64, err error)
	// Get returns the body size and the out-links of the object at url.
	// For non-HTML objects links is empty.
	Get(ctx context.Context, url string) (size int64, links []string, err error)
}

// Profile is the outcome of the profiling stage (§2.2.1): the discovered
// objects grouped into the categories the MFC stages request from.
type Profile struct {
	Host         string
	BaseURL      string
	Discovered   int
	ByKind       map[Kind]int
	LargeObjects []Object // static, 100KB..2MB, sorted by size descending
	SmallQueries []Object // dynamic, < 15KB, sorted by size ascending
}

// HasLargeObject reports whether the Large Object stage can run.
func (p *Profile) HasLargeObject() bool { return len(p.LargeObjects) > 0 }

// HasSmallQuery reports whether the Small Query stage can run.
func (p *Profile) HasSmallQuery() bool { return len(p.SmallQueries) > 0 }

// String renders a one-line summary.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile(%s): %d objects", p.Host, p.Discovered)
	kinds := []Kind{KindText, KindBinary, KindImage, KindQuery}
	for _, k := range kinds {
		if n := p.ByKind[k]; n > 0 {
			fmt.Fprintf(&b, " %s:%d", k, n)
		}
	}
	fmt.Fprintf(&b, " large:%d smallq:%d", len(p.LargeObjects), len(p.SmallQueries))
	return b.String()
}

// CrawlConfig bounds the profiling crawl.
type CrawlConfig struct {
	MaxObjects int // stop after discovering this many (default 500)
	MaxDepth   int // link depth from the base page (default 5)
}

func (c CrawlConfig) withDefaults() CrawlConfig {
	if c.MaxObjects <= 0 {
		c.MaxObjects = 500
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 5
	}
	return c
}

// ErrEmptyCrawl is returned when the base page cannot be fetched.
var ErrEmptyCrawl = errors.New("content: crawl discovered no objects")

// Crawl performs the profiling stage: a bounded BFS from the base page,
// classifying every discovered URL and sizing it with a HEAD request (GET
// for queries, as the paper does, since HEAD on CGI output is unreliable).
func Crawl(ctx context.Context, f Fetcher, host, base string, cfg CrawlConfig) (*Profile, error) {
	cfg = cfg.withDefaults()
	type item struct {
		url   string
		depth int
	}
	seen := map[string]struct{}{base: {}}
	queue := []item{{base, 0}}
	prof := &Profile{Host: host, BaseURL: base, ByKind: make(map[Kind]int)}

	for head := 0; head < len(queue) && prof.Discovered < cfg.MaxObjects; head++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		it := queue[head]
		kind := Classify(it.url)

		var size int64
		var links []string
		var err error
		if kind == KindQuery {
			size, links, err = f.Get(ctx, it.url)
		} else if kind == KindText {
			// Pages are fetched with GET to harvest links.
			size, links, err = f.Get(ctx, it.url)
		} else {
			size, err = f.Head(ctx, it.url)
		}
		if err != nil {
			continue // unreachable object: skip, as a crawler must
		}

		prof.add(Object{URL: it.url, Kind: kind, Size: size, Dynamic: kind == KindQuery})
		if it.depth < cfg.MaxDepth {
			for _, l := range links {
				if _, ok := seen[l]; !ok {
					seen[l] = struct{}{}
					queue = append(queue, item{l, it.depth + 1})
				}
			}
		}
	}
	if prof.Discovered == 0 {
		return nil, ErrEmptyCrawl
	}
	prof.sortGroups()
	return prof, nil
}

// Profile is Crawl over the site itself, walking object positions instead
// of URLs: the same Profile Crawl returns from a fetcher that serves the
// site, for the simulated profiling stage. It renders only the URLs of the
// objects it groups.
func (s *Site) Profile(cfg CrawlConfig) *Profile {
	cfg = cfg.withDefaults()
	type item struct{ obj, depth int32 }
	seen := make([]bool, s.Len())
	seen[s.base] = true
	queue := append(make([]item, 0, s.Len()), item{s.base, 0})
	prof := &Profile{Host: s.Host, BaseURL: s.Base, ByKind: make(map[Kind]int)}
	grouped := make([]int32, 0, 64) // positions of the grouped objects
	for head := 0; head < len(queue) && prof.Discovered < cfg.MaxObjects; head++ {
		it := queue[head]
		kind := Kind(s.kinds[it.obj])
		o := Object{Kind: kind, Size: s.sizes[it.obj], Dynamic: kind == KindQuery}
		if prof.add(o); o.IsLargeObject() || o.IsSmallQuery() {
			grouped = append(grouped, it.obj)
		}
		if int(it.depth) < cfg.MaxDepth {
			for _, l := range s.links[s.first[it.obj]:s.first[it.obj+1]] {
				if !seen[l] {
					seen[l] = true
					queue = append(queue, item{l, it.depth + 1})
				}
			}
		}
	}
	// One string holds the grouped objects' URLs, in the groups' order: a
	// small query is a query and a large object is not.
	var b strings.Builder
	b.Grow(24 * len(grouped))
	large, small := prof.LargeObjects, prof.SmallQueries
	for _, i := range grouped {
		var buf [32]byte
		start := b.Len()
		b.Write(s.appendURL(buf[:0], int(i)))
		if url := b.String()[start:]; Kind(s.kinds[i]) == KindQuery {
			small[0].URL, small = url, small[1:]
		} else {
			large[0].URL, large = url, large[1:]
		}
	}
	prof.sortGroups()
	return prof
}

// add counts one discovered object.
func (p *Profile) add(obj Object) {
	p.Discovered++
	p.ByKind[obj.Kind]++
	if obj.IsLargeObject() {
		p.LargeObjects = append(p.LargeObjects, obj)
	}
	if obj.IsSmallQuery() {
		p.SmallQueries = append(p.SmallQueries, obj)
	}
}

// sortGroups puts the groups in the order the stages request from them.
func (p *Profile) sortGroups() {
	slices.SortFunc(p.LargeObjects, func(a, b Object) int {
		return cmp.Or(cmp.Compare(b.Size, a.Size), strings.Compare(a.URL, b.URL))
	})
	slices.SortFunc(p.SmallQueries, func(a, b Object) int {
		return cmp.Or(cmp.Compare(a.Size, b.Size), strings.Compare(a.URL, b.URL))
	})
}
