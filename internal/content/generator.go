package content

import (
	"math"
	"math/rand"
	"strconv"
	"strings"

	"mfc/internal/rng"
)

// GenConfig controls synthetic site generation. Zero values get sensible
// defaults resembling a mid-size departmental web server.
type GenConfig struct {
	Pages         int   // HTML pages (default 40)
	ImagesPerPage int   // images linked from each page (default 3)
	Binaries      int   // downloadable blobs (default 6)
	Queries       int   // distinct dynamic query URLs (default 20)
	LargeObjects  int   // of the binaries, how many in 100KB..2MB (default 3)
	MeanPageSize  int64 // default 8KB
	MeanQuerySize int64 // default 2KB (always < 15KB so queries qualify)
	// MaxLargeObjectSize caps large-object sizes below the study's 2MB
	// ceiling (default LargeObjectMax). Sites whose biggest downloads are
	// modest use this.
	MaxLargeObjectSize int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Pages <= 0 {
		c.Pages = 40
	}
	if c.ImagesPerPage < 0 {
		c.ImagesPerPage = 0
	} else if c.ImagesPerPage == 0 {
		c.ImagesPerPage = 3
	}
	if c.Binaries <= 0 {
		c.Binaries = 6
	}
	if c.Queries < 0 {
		c.Queries = 0
	} else if c.Queries == 0 {
		c.Queries = 20
	}
	if c.LargeObjects <= 0 {
		c.LargeObjects = 3
	}
	if c.LargeObjects > c.Binaries {
		c.LargeObjects = c.Binaries
	}
	if c.MeanPageSize <= 0 {
		c.MeanPageSize = 8 * 1024
	}
	if c.MeanQuerySize <= 0 {
		c.MeanQuerySize = 2 * 1024
	}
	if c.MaxLargeObjectSize <= 0 || c.MaxLargeObjectSize > LargeObjectMax {
		c.MaxLargeObjectSize = LargeObjectMax
	}
	if c.MaxLargeObjectSize <= LargeObjectMin {
		c.MaxLargeObjectSize = LargeObjectMin + 1
	}
	return c
}

// Generate builds a deterministic synthetic Site: an index page linking to a
// tree of pages, images, binaries (some Large Objects) and query URLs. The
// same (host, seed, cfg) always yields the same site.
func Generate(host string, seed int64, cfg GenConfig) *Site {
	cfg = cfg.withDefaults()
	rng := rand.New(rng.New(seed))
	nImages := min(cfg.Pages*cfg.ImagesPerPage, 200)
	// One slice in draw order (queries, binaries, images, pages); each
	// URL is a substring of one per-site string.
	objects := make([]Object, cfg.Queries+cfg.Binaries+nImages+cfg.Pages)
	queries := objects[:cfg.Queries]
	bins := objects[cfg.Queries : cfg.Queries+cfg.Binaries]
	imgs := objects[cfg.Queries+cfg.Binaries : len(objects)-cfg.Pages]
	pages := objects[len(objects)-cfg.Pages:]
	var w urlWriter // exact while every index fits its zero padding
	w.Grow(21*cfg.Queries + 20*cfg.Binaries + 15*nImages + 16*cfg.Pages)

	for i := range queries {
		size := clamp64(jitter64(rng, cfg.MeanQuerySize), 64, SmallQueryMax-1)
		queries[i] = Object{URL: w.url("/search.cgi?q=item", i, 3, ""), Kind: KindQuery, Size: size, Dynamic: true}
	}

	// Binaries; the first cfg.LargeObjects are sized into the LO band.
	for i := range bins {
		var size int64
		if i < cfg.LargeObjects {
			size = LargeObjectMin + rng.Int63n(cfg.MaxLargeObjectSize-LargeObjectMin)
		} else {
			size = clamp64(jitter64(rng, 40*1024), 1024, LargeObjectMin-1)
		}
		bins[i] = Object{URL: w.url("/files/dist", i, 2, ".tar.gz"), Kind: KindBinary, Size: size}
	}

	// Images (shared pool; pages link into it).
	for i := range imgs {
		size := clamp64(jitter64(rng, 24*1024), 512, LargeObjectMin-1)
		imgs[i] = Object{URL: w.url("/img/pic", i, 3, ".jpg"), Kind: KindImage, Size: size}
	}

	// Pages. Page i links to a few later pages (tree-ish), some images,
	// an occasional binary and an occasional query. All links share one
	// backing array, and their object positions one slab beside it;
	// linkedBy[k] is 1 + the last page that linked image k.
	pages[0].URL = "/index.html"
	for i := 1; i < len(pages); i++ {
		pages[i].URL = w.url("/pages/p", i, 3, ".html")
	}
	nLinks := len(pages) - 1 + len(pages)*(min(cfg.ImagesPerPage, nImages)+2) + len(bins) + 1
	links, linkIdx := make([]string, 0, nLinks), make([]int32, 0, nLinks)
	link := func(o int) {
		links = append(links, objects[o].URL)
		linkIdx = append(linkIdx, int32(o))
	}
	pageAt, imgAt, binAt := len(objects)-len(pages), len(queries)+len(bins), len(queries)
	first := make([]int32, len(objects)+1)
	linkedBy := make([]int32, nImages)
	for i := range pages {
		start := len(links)
		for j := i*2 + 1; j <= i*2+2 && j < len(pages); j++ {
			link(pageAt + j)
		}
		for k := 0; k < cfg.ImagesPerPage && nImages > 0; k++ {
			if n := rng.Intn(nImages); linkedBy[n] != int32(i+1) {
				linkedBy[n] = int32(i + 1)
				link(imgAt + n)
			}
		}
		bin, query := -1, -1
		if len(bins) > 0 && rng.Intn(3) == 0 {
			bin = rng.Intn(len(bins))
			link(binAt + bin)
		}
		if len(queries) > 0 && rng.Intn(2) == 0 {
			query = rng.Intn(len(queries))
			link(query)
		}
		if i == 0 {
			// The index must reach everything for the crawler: give it
			// direct links to every binary and the first query too.
			for k := range bins {
				if k != bin {
					link(binAt + k)
				}
			}
			if len(queries) > 0 && query != 0 {
				link(0)
			}
		}
		pages[i].Kind = KindText
		pages[i].Size = clamp64(jitter64(rng, cfg.MeanPageSize), 256, 64*1024)
		if len(links) > start {
			pages[i].Links = links[start:len(links):len(links)]
		}
		first[pageAt+i+1] = int32(len(links))
	}

	site, err := newSite(host, "/index.html", objects)
	if err != nil {
		panic("content: generator produced invalid site: " + err.Error())
	}
	site.first, site.links = first, linkIdx
	return site
}

// urlWriter appends a site's URLs to one string: each URL it returns is a
// substring of it.
type urlWriter struct{ strings.Builder }

// url writes prefix, i zero-padded to width digits (%0*d), and suffix.
func (w *urlWriter) url(prefix string, i, width int, suffix string) string {
	start := w.Len()
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(i), 10)
	w.WriteString(prefix)
	for n := len(digits); n < width; n++ {
		w.WriteByte('0')
	}
	w.Write(digits)
	w.WriteString(suffix)
	return w.String()[start:]
}

// jitterMult[3+n] is jitter64's multiplier n half steps from zero: 1.0
// multiplied (n > 0) or divided (n < 0) by 1.41 |n| times, one step at a
// time, so each entry is bit-identical to the per-draw loop sizes were
// pinned with.
var jitterMult = func() (t [7]float64) {
	t[3] = 1
	for n := 1; n <= 3; n++ {
		t[3+n], t[3-n] = t[2+n]*1.41, t[4-n]/1.41
	}
	return t
}()

func jitter64(rng *rand.Rand, mean int64) int64 {
	// Log-normal-ish: mean * 2^U(-1.5,1.5), heavy enough to vary sizes;
	// the multiplier is 1.41 per started half step of f away from zero.
	f := rng.Float64()*3 - 1.5
	n := int(math.Copysign(math.Ceil(2*math.Abs(f)), f))
	return int64(float64(mean) * jitterMult[n+3])
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
