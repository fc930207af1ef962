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
	"sort"
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

// Site is an immutable collection of objects indexed by URL, with a base
// page. It is the unit a Profile is computed from and the content model a
// simulated server hosts.
type Site struct {
	Host    string
	Base    string           // URL of the base page (e.g. "/index.html")
	objects []Object         // in the order they were given
	index   map[string]int32 // URL -> position in objects
}

// NewSite builds a Site from objects. The base URL must be present among
// the objects.
func NewSite(host, base string, objects []Object) (*Site, error) {
	return newSite(host, base, slices.Clone(objects))
}

// newSite is NewSite keeping objects itself, for a caller that built the
// slice for this site and never touches it again.
func newSite(host, base string, objects []Object) (*Site, error) {
	index := make(map[string]int32, len(objects))
	for i, o := range objects {
		if o.URL == "" {
			return nil, fmt.Errorf("content: object with empty URL on host %q", host)
		}
		if index[o.URL] = int32(i); len(index) != i+1 {
			return nil, fmt.Errorf("content: duplicate URL %q on host %q", o.URL, host)
		}
	}
	if _, ok := index[base]; !ok {
		return nil, fmt.Errorf("content: base page %q not among objects of host %q", base, host)
	}
	return &Site{Host: host, Base: base, objects: objects, index: index}, nil
}

// Lookup returns the object at url.
func (s *Site) Lookup(url string) (Object, bool) {
	i, ok := s.index[url]
	if !ok {
		return Object{}, false
	}
	return s.objects[i], true
}

// BasePage returns the site's base page object.
func (s *Site) BasePage() Object {
	o, _ := s.Lookup(s.Base)
	return o
}

// Len returns the number of objects.
func (s *Site) Len() int { return len(s.objects) }

// URLs returns all object URLs in deterministic (sorted) order.
func (s *Site) URLs() []string {
	urls := make([]string, len(s.objects))
	for i, o := range s.objects {
		urls[i] = o.URL
	}
	sort.Strings(urls)
	return urls
}

// Objects returns all objects in deterministic (URL-sorted) order.
func (s *Site) Objects() []Object {
	out := make([]Object, len(s.objects))
	copy(out, s.objects)
	slices.SortFunc(out, func(a, b Object) int { return strings.Compare(a.URL, b.URL) })
	return out
}
