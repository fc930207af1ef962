package content_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mfc/internal/content"
	"mfc/internal/population"
	"mfc/internal/websim"
)

var update = flag.Bool("update", false, "rewrite testdata/sites.golden from this tree")

// siteDigest is a sha256 over everything a generated site serves: Host,
// Base and, in Objects() order, each object's URL, Kind, Size, Dynamic and
// Links.
func siteDigest(s *content.Site) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q %q %d\n", s.Host, s.Base, s.Len())
	for _, o := range s.Objects() {
		fmt.Fprintf(h, "%q %d %d %t %q\n", o.URL, o.Kind, o.Size, o.Dynamic, o.Links)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenSites is every site testdata/sites.golden pins: each population
// band's first 64 sites at three seeds, the four generated websim presets,
// the zero GenConfig, and a config wide enough to widen every zero-padded
// URL field past its width.
func goldenSites(yield func(name string, s *content.Site)) {
	seeds := []int64{1, 7, 99}
	for _, b := range population.Bands {
		for _, seed := range seeds {
			for i := 0; i < 64; i++ {
				yield(fmt.Sprintf("%s/seed%d/%d", b, seed, i), population.SampleAt(b, i, seed).Site)
			}
		}
	}
	presets := []struct {
		name string
		site func(int64) *content.Site
	}{{"qt", websim.QTSite}, {"univ1", websim.Univ1Site}, {"univ2", websim.Univ2Site}, {"univ3", websim.Univ3Site}}
	wide := content.GenConfig{Pages: 1200, Queries: 1100, Binaries: 120, ImagesPerPage: 7}
	for _, seed := range seeds {
		for _, p := range presets {
			yield(fmt.Sprintf("preset-%s/seed%d", p.name, seed), p.site(seed))
		}
		yield(fmt.Sprintf("default/seed%d", seed), content.Generate("gen.example.org", seed, content.GenConfig{}))
		yield(fmt.Sprintf("wide/seed%d", seed), content.Generate("wide.example.org", seed, wide))
	}
}

// TestSitesGolden pins the generator's output byte for byte: any change to
// what a sampled site holds shows up here as the names of the sites whose
// digest moved. Regenerate with -update only for an intended change.
func TestSitesGolden(t *testing.T) {
	var b strings.Builder
	goldenSites(func(name string, s *content.Site) { fmt.Fprintf(&b, "%s %s\n", name, siteDigest(s)) })
	path := filepath.Join("testdata", "sites.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(b.String())
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if bad++; bad <= 10 {
				t.Errorf("line %d: got %q, want %q", i+1, g, w)
			}
		}
	}
	t.Errorf("%d of %d site digests differ from testdata/sites.golden", bad, len(wl))
}

// TestSiteProfileMatchesCrawl requires the simulated profiling stage,
// Site.Profile, to return what Crawl over the site returns, for every
// pinned site under every checked crawl bound.
func TestSiteProfileMatchesCrawl(t *testing.T) {
	goldenSites(func(_ string, s *content.Site) { content.RequireProfileMatchesCrawl(t, s) })
}

// TestGeneratedKindsMatchClassify checks what Generate's Site relies on
// when it takes each object's crawl kind from Object.Kind: that kind is
// the one Classify gives the URL.
func TestGeneratedKindsMatchClassify(t *testing.T) {
	goldenSites(func(name string, s *content.Site) {
		for _, o := range s.Objects() {
			if k := content.Classify(o.URL); o.Kind != k {
				t.Fatalf("%s: %s has Kind %v, Classify gives %v", name, o.URL, o.Kind, k)
			}
		}
	})
}
