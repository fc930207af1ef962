package population

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// firstSites is the first n sites of a band, as a campaign cell or a
// paper-sized figure draws them.
func firstSites(b Band, n int, seed int64) []SiteSample {
	out := make([]SiteSample, n)
	for i := range out {
		out[i] = SampleAt(b, i, seed)
	}
	return out
}

func TestSamplesAreWellFormed(t *testing.T) {
	for _, band := range Bands {
		for _, s := range firstSites(band, 13, 1) {
			if s.Site == nil || s.Site.Len() == 0 {
				t.Errorf("%v: empty site", band)
			}
			if s.Config.AccessBandwidth <= 0 {
				t.Errorf("%v: no bandwidth", band)
			}
		}
	}
}

// Property: weight tables are proper distributions.
func TestWeightsSumToOneProperty(t *testing.T) {
	f := func(b uint8) bool {
		band := Band(int(b) % 6)
		for _, w := range [][5]float64{computeWeights(band), bandwidthWeights(band)} {
			sum := 0.0
			for _, p := range w {
				if p < 0 {
					return false
				}
				sum += p
			}
			if sum < 0.999 || sum > 1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Rank-correlated provisioning: the top band's mean parse cost must be
// clearly lower than the bottom band's (the Figure 7/8 driver).
func TestRankCorrelation(t *testing.T) {
	mean := func(b Band) float64 {
		samples := firstSites(b, 200, 3)
		tot := 0.0
		for _, s := range samples {
			tot += s.Config.ParseCPU.Seconds()
		}
		return tot / float64(len(samples))
	}
	top, bottom := mean(Rank1K), mean(Rank1M)
	if bottom < top*1.5 {
		t.Errorf("parse cost top=%v bottom=%v: insufficient rank correlation", top, bottom)
	}
}

// Bandwidth must be much less rank-correlated than processing (Figure 9's
// finding): the top/bottom ratio for bandwidth stays well under the
// processing ratio.
func TestBandwidthWeaklyCorrelated(t *testing.T) {
	meanBW := func(b Band) float64 {
		samples := firstSites(b, 300, 3)
		tot := 0.0
		for _, s := range samples {
			tot += s.Config.AccessBandwidth * float64(max(1, s.Config.Replicas))
		}
		return tot / float64(len(samples))
	}
	meanCPU := func(b Band) float64 {
		samples := firstSites(b, 300, 3)
		tot := 0.0
		for _, s := range samples {
			tot += s.Config.ParseCPU.Seconds()
		}
		return tot / float64(len(samples))
	}
	bwRatio := meanBW(Rank1K) / meanBW(Rank1M)
	cpuRatio := meanCPU(Rank1M) / meanCPU(Rank1K)
	if bwRatio >= cpuRatio {
		t.Errorf("bandwidth ratio %.2f not weaker than processing ratio %.2f", bwRatio, cpuRatio)
	}
}

func TestBandString(t *testing.T) {
	for b, want := range map[Band]string{
		Rank1K: "rank-1-1K", Rank1M: "rank-100K-1M", Startup: "startup", Phishing: "phishing",
	} {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(b), b.String(), want)
		}
	}
}

func TestPhishingSitesAreSmall(t *testing.T) {
	for _, s := range firstSites(Phishing, 10, 2) {
		if s.Site.Len() > 60 {
			t.Errorf("phishing site with %d objects; expected a handful", s.Site.Len())
		}
	}
}

// SampleAt must be a pure function of (band, index, seed) — independent of
// call order — and distinct indices must yield distinct sites. This is the
// campaign engine's shard contract.
func TestSampleAtIsOrderIndependent(t *testing.T) {
	const seed = 42
	// Forward and reverse sweeps must agree sample by sample.
	var forward []SiteSample
	for i := 0; i < 12; i++ {
		forward = append(forward, SampleAt(Rank100K, i, seed))
	}
	for i := 11; i >= 0; i-- {
		got := SampleAt(Rank100K, i, seed)
		want := forward[i]
		if got.Name != want.Name || got.Seed != want.Seed ||
			got.MeasureSeed != want.MeasureSeed || got.Site.Len() != want.Site.Len() ||
			!reflect.DeepEqual(got.Config, want.Config) {
			t.Fatalf("site %d differs between sweeps:\n%+v\n%+v", i, got, want)
		}
	}
	// Adjacent indices, bands, and seeds must not collide.
	seen := map[int64]string{}
	for _, b := range Bands {
		for i := 0; i < 8; i++ {
			s := SampleAt(b, i, seed)
			if prev, dup := seen[s.MeasureSeed]; dup {
				t.Fatalf("measure-seed collision: %s vs %s", s.Name, prev)
			}
			seen[s.MeasureSeed] = s.Name
		}
	}
	if s := SampleAt(Rank100K, 3, seed+1); s.Seed == forward[3].Seed {
		t.Error("changing the campaign seed did not change the site")
	}
}

func TestParseBandRoundTrips(t *testing.T) {
	for _, b := range Bands {
		got, err := ParseBand(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBand(%q) = %v, %v", b.String(), got, err)
		}
	}
	if _, err := ParseBand("rank-nope"); err == nil {
		t.Error("unknown band accepted")
	}
}

// BenchmarkSampleAt is one site sample per band: the provisioning draw
// plus the generated content tree, the first step of every campaign job.
func BenchmarkSampleAt(b *testing.B) {
	for _, band := range Bands {
		b.Run(band.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SampleAt(band, i, 1)
			}
		})
	}
}

func TestSiteNameMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 7, 42, 999, 12345, 99999, 100000, 1234567, -1, -42, -9999, -10000, -123456} {
		for _, b := range []Band{Rank1K, Phishing, Band(9)} {
			if got, want := siteName(b, i), fmt.Sprintf("%s-%05d", b, i); got != want {
				t.Errorf("siteName(%v, %d) = %q, want %q", b, i, got, want)
			}
		}
	}
}

// TestAllocBudgetSampleAt keeps site sampling cheap: a Rank10K sample made
// 671 allocations when it formatted every URL with fmt and deduped links
// through a map per page, and 13 after. The crawl's link slab and kinds
// took it to 16 allocations and 66.1 KB, and a site of columns with no URL
// string or URL map to 10 and 18.3 KB; the budgets are those + 10 %.
func TestAllocBudgetSampleAt(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		SampleAt(Rank10K, i, 1)
		i++
	})
	runtime.ReadMemStats(&after)
	if allocs > 11 {
		t.Errorf("%.0f allocs per Rank10K SampleAt, budget 11", allocs)
	}
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(i) / 1000; kb > 20.2 {
		t.Errorf("%.1f KB allocated per Rank10K SampleAt, budget 20.2", kb)
	}
}
