// Package content models the content hosted by a web server and implements
// the MFC profiling stage: crawling a target site, discovering objects, and
// classifying them into the request categories the paper defines (§2.2.1) —
// regular/text, binaries, images, and queries — and into the two size-based
// groups the stages use: Large Objects (static, > 100 KB) and Small Queries
// (dynamic, response < 15 KB).
package content

import (
	"fmt"
	"path"
	"slices"
	"strconv"
	"strings"
)

// Kind is the coarse content-type category derived from the URL.
type Kind int

const (
	// KindText covers regular pages: .html, .htm, .txt, and extensionless
	// paths that are not queries.
	KindText Kind = iota
	// KindBinary covers downloadable blobs: .pdf, .exe, .tar.gz, .zip, .iso,
	// .mp4, and similar.
	KindBinary
	// KindImage covers .gif, .jpg, .jpeg, .png, .ico, .svg.
	KindImage
	// KindQuery covers URLs with a '?' (CGI-style dynamic responses).
	KindQuery
)

func (k Kind) String() string {
	switch k {
	case KindText:
		return "text"
	case KindBinary:
		return "binary"
	case KindImage:
		return "image"
	case KindQuery:
		return "query"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Thresholds from the paper (§2.2.1).
const (
	// LargeObjectMin is the minimum size for the Large Objects group: big
	// enough that TCP exits slow start and saturates the path.
	LargeObjectMin = 100 * 1024
	// LargeObjectMax caps Large Objects per the §5 study (100KB–2MB).
	LargeObjectMax = 2 * 1024 * 1024
	// SmallQueryMax is the maximum response size for the Small Queries
	// group: small enough that bandwidth stays under-utilized.
	SmallQueryMax = 15 * 1024
)

// Object is one addressable object on a site.
type Object struct {
	URL     string
	Kind    Kind
	Size    int64 // response body size in bytes
	Dynamic bool  // response generated per request (DB/CPU work)
	// Links lists URLs referenced by this object, used by the crawler when
	// the object is an HTML page.
	Links []string
}

// IsLargeObject reports whether the object qualifies for the Large Object
// stage: a static file in [LargeObjectMin, LargeObjectMax].
func (o Object) IsLargeObject() bool {
	return !o.Dynamic && o.Size >= LargeObjectMin && o.Size <= LargeObjectMax
}

// IsSmallQuery reports whether the object qualifies for the Small Query
// stage: a dynamic response under SmallQueryMax.
func (o Object) IsSmallQuery() bool {
	return o.Dynamic && o.Size < SmallQueryMax
}

var binaryExts = map[string]bool{
	".pdf": true, ".exe": true, ".gz": true, ".tgz": true, ".zip": true,
	".iso": true, ".dmg": true, ".msi": true, ".rpm": true, ".deb": true,
	".mp4": true, ".avi": true, ".mov": true, ".mp3": true, ".bin": true,
	".tar": true, ".7z": true, ".bz2": true, ".xz": true,
}

var imageExts = map[string]bool{
	".gif": true, ".jpg": true, ".jpeg": true, ".png": true,
	".ico": true, ".svg": true, ".bmp": true, ".webp": true,
}

var textExts = map[string]bool{
	".html": true, ".htm": true, ".txt": true, ".css": true,
	".js": true, ".xml": true, ".md": true,
}

// Classify derives the Kind of a URL using the paper's heuristics: a '?'
// marks a query; otherwise the file extension decides.
func Classify(url string) Kind {
	if strings.Contains(url, "?") {
		return KindQuery
	}
	p := url
	if i := strings.Index(p, "#"); i >= 0 {
		p = p[:i]
	}
	ext := strings.ToLower(path.Ext(p))
	// Handle double extensions like .tar.gz: path.Ext gives ".gz", which is
	// already in binaryExts.
	switch {
	case binaryExts[ext]:
		return KindBinary
	case imageExts[ext]:
		return KindImage
	case textExts[ext], ext == "", ext == ".php", ext == ".asp", ext == ".jsp", ext == ".cgi":
		// Extensionless and script-suffixed URLs without a query string are
		// treated as regular pages (their GET returns HTML).
		return KindText
	default:
		return KindBinary // unknown extensions are conservatively binary
	}
}

// Site is an immutable collection of objects with a base page, kept as
// columns over object positions: the unit a Profile is computed from and
// the content model a simulated server hosts. A generated site keeps no
// URL: its positions are four segments (queries, binaries, images,
// pages), and a URL is rendered from, or parsed back to, a segment and an
// index in it. A NewSite site keeps its objects and a URL→position map.
type Site struct {
	Host string
	Base string // URL of the base page (e.g. "/index.html")
	// kinds[i] is Classify of object i's URL, the kind the crawl reads.
	// links[first[i]:first[i+1]] are the positions object i links to when
	// the crawl reads its links (it classifies as text or query); a link to
	// no object is dropped, as the crawl skips an unreachable object.
	sizes        []int64
	kinds        []byte
	first, links []int32
	base         int32
	ends         [len(segments)]int32 // one past each generated segment's last position
	objects      []Object             // NewSite's objects, nil on a generated site
	index        map[string]int32
}

// segments says how a generated site renders each segment's URLs: prefix,
// the index zero-padded to width digits, suffix. Page 0 is generatedBase.
var segments = [...]struct {
	prefix string
	width  int
	suffix string
}{{queryPrefix, 3, ""}, {binaryPrefix, 2, binarySuffix}, {imagePrefix, 3, imageSuffix}, {pagePrefix, 3, pageSuffix}}

// Find pairs these constants again in a switch, as a loop over segments
// took 20-27 ns a query or image URL on BenchmarkSiteFind (-cpu 1, 2
// vCPUs), a map hit 13-15 ns and the switch 10-11 ns; the query prefix is
// split because Go compares at most 16 constant bytes inline (15 ns
// unsplit). FuzzSiteLookup holds the switch to this table.
const (
	queryPath, queryKey                                = "/search.cgi", "?q=item"
	queryPrefix, binaryPrefix, imagePrefix, pagePrefix = queryPath + queryKey, "/files/dist", "/img/pic", "/pages/p"
	binarySuffix, imageSuffix, pageSuffix              = ".tar.gz", ".jpg", ".html"
	pageSegment, generatedBase                         = len(segments) - 1, "/index.html"
)

// NewSite builds a Site from objects. The base URL must be present among
// the objects.
func NewSite(host, base string, objects []Object) (*Site, error) {
	n := len(objects)
	s := &Site{Host: host, Base: base, objects: slices.Clone(objects), index: make(map[string]int32, n),
		sizes: make([]int64, n), kinds: make([]byte, n), first: make([]int32, n+1)}
	for i, o := range s.objects {
		if o.URL == "" {
			return nil, fmt.Errorf("content: object with empty URL on host %q", host)
		}
		if s.index[o.URL] = int32(i); len(s.index) != i+1 {
			return nil, fmt.Errorf("content: duplicate URL %q on host %q", o.URL, host)
		}
		s.sizes[i], s.kinds[i] = o.Size, byte(Classify(o.URL))
	}
	var ok bool
	if s.base, ok = s.index[base]; !ok {
		return nil, fmt.Errorf("content: base page %q not among objects of host %q", base, host)
	}
	for i, o := range s.objects {
		for _, l := range o.Links {
			if j, ok := s.index[l]; ok && (Kind(s.kinds[i]) == KindText || Kind(s.kinds[i]) == KindQuery) {
				s.links = append(s.links, j)
			}
		}
		s.first[i+1] = int32(len(s.links))
	}
	return s, nil
}

// Len returns the number of objects.
func (s *Site) Len() int { return len(s.sizes) }

// Size returns the size of the object at position i.
func (s *Site) Size(i int) int64 { return s.sizes[i] }

// Dynamic reports whether the object at position i is dynamic.
func (s *Site) Dynamic(i int) bool {
	if s.objects != nil {
		return s.objects[i].Dynamic
	}
	return Kind(s.kinds[i]) == KindQuery
}

// URL returns the URL of the object at position i.
func (s *Site) URL(i int) string {
	var buf [32]byte
	return string(s.appendURL(buf[:0], i))
}

// appendURL appends the URL of the object at position i to dst.
func (s *Site) appendURL(dst []byte, i int) []byte {
	if s.objects != nil {
		return append(dst, s.objects[i].URL...)
	}
	k := 0
	for int32(i) >= s.ends[k] {
		k++
	}
	if k > 0 {
		i -= int(s.ends[k-1])
	}
	if k == pageSegment && i == 0 {
		return append(dst, generatedBase...)
	}
	dst = append(dst, segments[k].prefix...)
	for w, p := 1, 10; w < segments[k].width; w, p = w+1, p*10 {
		if i < p {
			dst = append(dst, '0')
		}
	}
	return append(strconv.AppendInt(dst, int64(i), 10), segments[k].suffix...)
}

// Find returns the position of the object at url. A generated site parses
// url: a segment's prefix and suffix around the index of one of its
// objects, spelled as URL renders it, so no other spelling is found.
func (s *Site) Find(url string) (int, bool) {
	if s.objects != nil {
		i, ok := s.index[url]
		return int(i), ok
	}
	// Each case compares constants, which compile to a few word loads.
	var k int
	var digits string
	switch n := len(url); {
	case url == generatedBase:
		return int(s.base), true
	case n > len(queryPrefix) && url[:len(queryPath)] == queryPath && url[len(queryPath):len(queryPrefix)] == queryKey:
		k, digits = 0, url[len(queryPrefix):]
	case n > len(binaryPrefix+binarySuffix) && url[:len(binaryPrefix)] == binaryPrefix && url[n-len(binarySuffix):] == binarySuffix:
		k, digits = 1, url[len(binaryPrefix):n-len(binarySuffix)]
	case n > len(imagePrefix+imageSuffix) && url[:len(imagePrefix)] == imagePrefix && url[n-len(imageSuffix):] == imageSuffix:
		k, digits = 2, url[len(imagePrefix):n-len(imageSuffix)]
	case n > len(pagePrefix+pageSuffix) && url[:len(pagePrefix)] == pagePrefix && url[n-len(pageSuffix):] == pageSuffix:
		k, digits = pageSegment, url[len(pagePrefix):n-len(pageSuffix)]
	default:
		return 0, false
	}
	j := 0
	for _, c := range []byte(digits) {
		if c -= '0'; c > 9 || len(digits) > 9 {
			return 0, false
		}
		j = j*10 + int(c)
	}
	// URL pads j to the segment's width and renders page 0 as
	// generatedBase: it gives digits back exactly when they are width
	// long, or longer with no leading zero.
	if k > 0 {
		j += int(s.ends[k-1])
	}
	w := segments[k].width
	if j >= int(s.ends[k]) || int32(j) == s.base || len(digits) < w || len(digits) > w && digits[0] == '0' {
		return 0, false
	}
	return j, true
}

// Lookup returns the object at url.
func (s *Site) Lookup(url string) (Object, bool) {
	i, ok := s.Find(url)
	if !ok {
		return Object{}, false
	}
	return s.object(i), true
}

// object returns the object at position i, rendering a generated one.
func (s *Site) object(i int) Object {
	if s.objects != nil {
		return s.objects[i]
	}
	o := Object{URL: s.URL(i), Kind: Kind(s.kinds[i]), Size: s.sizes[i], Dynamic: s.Dynamic(i)}
	for _, l := range s.links[s.first[i]:s.first[i+1]] {
		o.Links = append(o.Links, s.URL(int(l)))
	}
	return o
}

// BasePage returns the site's base page object.
func (s *Site) BasePage() Object { return s.object(int(s.base)) }

// Objects returns all objects in deterministic (URL-sorted) order.
func (s *Site) Objects() []Object {
	out := make([]Object, s.Len())
	for i := range out {
		out[i] = s.object(i)
	}
	slices.SortFunc(out, func(a, b Object) int { return strings.Compare(a.URL, b.URL) })
	return out
}
