package content

import (
	"math"
	"math/rand"

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
	// Columns in draw order (queries, binaries, images, pages).
	nObjects := cfg.Queries + cfg.Binaries + nImages + cfg.Pages
	binAt, imgAt, pageAt := cfg.Queries, cfg.Queries+cfg.Binaries, nObjects-cfg.Pages
	s := &Site{Host: host, Base: generatedBase, sizes: make([]int64, nObjects), kinds: make([]byte, nObjects),
		first: make([]int32, nObjects+1), base: int32(pageAt),
		ends: [len(segments)]int32{int32(binAt), int32(imgAt), int32(pageAt), int32(nObjects)}}

	for i := range cfg.Queries {
		s.sizes[i] = clamp64(jitter64(rng, cfg.MeanQuerySize), 64, SmallQueryMax-1)
		s.kinds[i] = byte(KindQuery)
	}

	// Binaries; the first cfg.LargeObjects are sized into the LO band.
	for i := range cfg.Binaries {
		if i < cfg.LargeObjects {
			s.sizes[binAt+i] = LargeObjectMin + rng.Int63n(cfg.MaxLargeObjectSize-LargeObjectMin)
		} else {
			s.sizes[binAt+i] = clamp64(jitter64(rng, 40*1024), 1024, LargeObjectMin-1)
		}
		s.kinds[binAt+i] = byte(KindBinary)
	}

	// Images (shared pool; pages link into it).
	for i := range nImages {
		s.sizes[imgAt+i] = clamp64(jitter64(rng, 24*1024), 512, LargeObjectMin-1)
		s.kinds[imgAt+i] = byte(KindImage)
	}

	// Pages. Page i links to a few later pages (tree-ish), some images,
	// an occasional binary and an occasional query. All links' object
	// positions share one slab; linkedBy[k] is 1 + the last page that
	// linked image k.
	s.links = make([]int32, 0, cfg.Pages-1+cfg.Pages*(min(cfg.ImagesPerPage, nImages)+2)+cfg.Binaries+1)
	link := func(o int) { s.links = append(s.links, int32(o)) }
	linkedBy := make([]int32, nImages)
	for i := range cfg.Pages {
		for j := i*2 + 1; j <= i*2+2 && j < cfg.Pages; j++ {
			link(pageAt + j)
		}
		for k := 0; k < cfg.ImagesPerPage && nImages > 0; k++ {
			if n := rng.Intn(nImages); linkedBy[n] != int32(i+1) {
				linkedBy[n] = int32(i + 1)
				link(imgAt + n)
			}
		}
		bin, query := -1, -1
		if cfg.Binaries > 0 && rng.Intn(3) == 0 {
			bin = rng.Intn(cfg.Binaries)
			link(binAt + bin)
		}
		if cfg.Queries > 0 && rng.Intn(2) == 0 {
			query = rng.Intn(cfg.Queries)
			link(query)
		}
		if i == 0 {
			// The index must reach everything for the crawler: give it
			// direct links to every binary and the first query too.
			for k := range cfg.Binaries {
				if k != bin {
					link(binAt + k)
				}
			}
			if cfg.Queries > 0 && query != 0 {
				link(0)
			}
		}
		s.sizes[pageAt+i] = clamp64(jitter64(rng, cfg.MeanPageSize), 256, 64*1024)
		s.kinds[pageAt+i] = byte(KindText)
		s.first[pageAt+i+1] = int32(len(s.links))
	}
	return s
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
