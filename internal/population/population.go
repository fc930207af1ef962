// Package population models the server populations of the paper's §5
// large-scale study: several hundred Web servers drawn from Quantcast rank
// bands, startup-company servers, and phishing hosts.
//
// We cannot measure the 2007 internet, so the substitution is explicit
// (DESIGN.md): each band is a mixture over hosting tiers (shared hosting
// through load-balanced farms) whose provisioning parameters are
// rank-correlated — strongly for request handling and back-end capacity,
// weakly for access bandwidth, which the paper found much less correlated
// with popularity. The MFC measurement pipeline is then run against each
// sampled server — by internal/campaign, whose cells the §5 figures and the
// 10k-site studies both are — and the figures are the recovered
// stopping-crowd-size distributions.
package population

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"mfc/internal/content"
	"mfc/internal/websim"
)

// Band identifies one studied population.
type Band int

// The six §5 populations.
const (
	Rank1K   Band = iota // Quantcast rank 1–1K
	Rank10K              // 1K–10K
	Rank100K             // 10K–100K
	Rank1M               // 100K–1M
	Startup              // recent startups from technology blogs
	Phishing             // Phishtank-listed hosts
)

// Bands lists every studied population, in presentation order.
var Bands = []Band{Rank1K, Rank10K, Rank100K, Rank1M, Startup, Phishing}

// BucketLabels are the §5 stopping-size buckets (Figures 7–9): one
// vocabulary for the experiment tables and the campaign report.
var BucketLabels = []string{"10-20", "20-30", "30-40", "40-50", "NoStop"}

// BucketOf maps a stopping size (0 = no stop) to its BucketLabels index.
func BucketOf(stop int) int {
	switch {
	case stop == 0:
		return 4
	case stop <= 20:
		return 0
	case stop <= 30:
		return 1
	case stop <= 40:
		return 2
	default:
		return 3
	}
}

// ParseBand maps a Band.String() name back to the band. Unknown names
// fail with the list of known ones, so plan-time validation errors are
// actionable.
func ParseBand(s string) (Band, error) {
	known := make([]string, len(Bands))
	for i, b := range Bands {
		if b.String() == s {
			return b, nil
		}
		known[i] = b.String()
	}
	return 0, fmt.Errorf("population: unknown band %q (known: %s)", s, strings.Join(known, ", "))
}

func (b Band) String() string {
	switch b {
	case Rank1K:
		return "rank-1-1K"
	case Rank10K:
		return "rank-1K-10K"
	case Rank100K:
		return "rank-10K-100K"
	case Rank1M:
		return "rank-100K-1M"
	case Startup:
		return "startup"
	case Phishing:
		return "phishing"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// tier is one hosting class.
type tier int

const (
	tierSharedWeak tier = iota // oversubscribed shared hosting
	tierSharedOK               // decent shared hosting
	tierVPS                    // small dedicated VM
	tierDedicated              // dedicated server
	tierFarm                   // load-balanced multi-server deployment
)

// computeWeights returns the tier mixture for request-handling/back-end
// provisioning per band. Popularity correlates strongly (Figures 7 and 8).
func computeWeights(b Band) [5]float64 {
	switch b {
	case Rank1K:
		return [5]float64{0.08, 0.10, 0.12, 0.25, 0.45}
	case Rank10K:
		return [5]float64{0.08, 0.12, 0.22, 0.30, 0.28}
	case Rank100K:
		return [5]float64{0.13, 0.18, 0.28, 0.28, 0.13}
	case Rank1M:
		return [5]float64{0.19, 0.28, 0.30, 0.17, 0.06}
	case Startup:
		// Bimodal (§5.2): many on well-provisioned commercial hosting,
		// a large minority ill-prepared.
		return [5]float64{0.22, 0.15, 0.08, 0.20, 0.35}
	case Phishing:
		// Similar to low-end sites (§5.3).
		return [5]float64{0.22, 0.26, 0.28, 0.17, 0.07}
	default:
		return [5]float64{0.2, 0.2, 0.2, 0.2, 0.2}
	}
}

// bandwidthWeights returns the tier mixture used for the access link only.
// The correlation with rank is deliberately weak (Figure 9: "many
// less-popular sites have better provisioned access bandwidth than might
// be expected").
func bandwidthWeights(b Band) [5]float64 {
	switch b {
	case Rank1K:
		return [5]float64{0.03, 0.07, 0.15, 0.25, 0.50}
	case Rank10K:
		return [5]float64{0.08, 0.12, 0.25, 0.27, 0.28}
	case Rank100K:
		return [5]float64{0.10, 0.15, 0.25, 0.25, 0.25}
	case Rank1M:
		return [5]float64{0.12, 0.17, 0.25, 0.24, 0.22}
	case Startup:
		return [5]float64{0.12, 0.13, 0.15, 0.25, 0.35}
	case Phishing:
		return [5]float64{0.15, 0.25, 0.25, 0.22, 0.13}
	default:
		return [5]float64{0.2, 0.2, 0.2, 0.2, 0.2}
	}
}

func pickTier(rng *rand.Rand, w [5]float64) tier {
	x := rng.Float64()
	acc := 0.0
	for i, p := range w {
		acc += p
		if x < acc {
			return tier(i)
		}
	}
	return tierFarm
}

// uniformDur draws uniformly in [lo, hi].
func uniformDur(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

func uniformF(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

// SiteSample is one generated server in a population study.
type SiteSample struct {
	Name   string
	Band   Band
	Config websim.Config
	Site   *content.Site
	Seed   int64
	// MeasureSeed drives the simulation that measures this site.
	MeasureSeed int64
}

// SampleAt generates site i of band b without generating sites 0..i-1: the
// site's generator is seeded by a splitmix-style hash of (seed, band, i), so
// any site is reachable in O(1). This is what lets a campaign shard a
// 10k-site band into independent per-site jobs and resume any subset, and
// what makes a paper-sized figure the first n sites of that same band.
//
// SampleAt(b, i, seed) is deterministic in its arguments and independent of
// call order.
func SampleAt(b Band, i int, seed int64) SiteSample {
	rng := rand.New(rand.NewSource(MixSeed(seed, int64(b), int64(i))))
	name := siteName(b, i)
	cfg := configFor(rng, b, name)
	siteSeed := rng.Int63()
	site := siteFor(b, name, siteSeed, rng)
	return SiteSample{
		Name: name, Band: b, Config: cfg, Site: site, Seed: siteSeed,
		MeasureSeed: rng.Int63(),
	}
}

// siteName is fmt.Sprintf("%s-%05d", b, i) in one allocation.
func siteName(b Band, i int) string {
	if i < 0 {
		return fmt.Sprintf("%s-%05d", b, i)
	}
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(i), 10)
	return b.String() + "-" + "00000"[min(len(digits), 5):] + string(digits)
}

// MixSeed folds the inputs through splitmix64 finalizers so that adjacent
// input tuples land on well-separated generator states.
func MixSeed(vals ...int64) int64 {
	z := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		z += uint64(v) + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z & math.MaxInt64)
}

// configFor draws one server's provisioning.
func configFor(rng *rand.Rand, b Band, name string) websim.Config {
	procTier := pickTier(rng, computeWeights(b))
	bwTier := pickTier(rng, bandwidthWeights(b))

	cfg := websim.Config{Name: name, Workers: 256, Backlog: 256}

	switch procTier {
	case tierSharedWeak:
		cfg.Cores = 1
		cfg.ParseCPU = uniformDur(rng, 5*time.Millisecond, 14*time.Millisecond)
		cfg.DBConns = 1 + rng.Intn(2)
		cfg.QueryBackendTime = uniformDur(rng, 20*time.Millisecond, 60*time.Millisecond)
		cfg.Workers = 64
	case tierSharedOK:
		cfg.Cores = 1
		cfg.ParseCPU = uniformDur(rng, 2500*time.Microsecond, 6*time.Millisecond)
		cfg.DBConns = 2 + rng.Intn(3)
		cfg.QueryBackendTime = uniformDur(rng, 12*time.Millisecond, 30*time.Millisecond)
		cfg.Workers = 128
	case tierVPS:
		cfg.Cores = 2
		cfg.ParseCPU = uniformDur(rng, 1500*time.Microsecond, 4*time.Millisecond)
		cfg.DBConns = 4 + rng.Intn(5)
		cfg.QueryBackendTime = uniformDur(rng, 8*time.Millisecond, 20*time.Millisecond)
	case tierDedicated:
		cfg.Cores = 2 + float64(rng.Intn(3))
		cfg.ParseCPU = uniformDur(rng, 600*time.Microsecond, 2*time.Millisecond)
		cfg.DBConns = 8 + rng.Intn(9)
		cfg.QueryBackendTime = uniformDur(rng, 4*time.Millisecond, 12*time.Millisecond)
	case tierFarm:
		cfg.Cores = 4 + float64(rng.Intn(5))
		cfg.ParseCPU = uniformDur(rng, 300*time.Microsecond, time.Millisecond)
		cfg.DBConns = 16 + rng.Intn(17)
		cfg.QueryBackendTime = uniformDur(rng, 2*time.Millisecond, 8*time.Millisecond)
		cfg.Replicas = 2 + rng.Intn(6)
	}

	switch bwTier {
	case tierSharedWeak:
		cfg.AccessBandwidth = uniformF(rng, 4e6, 12e6) // ~30–100 Mbit
	case tierSharedOK:
		cfg.AccessBandwidth = uniformF(rng, 12e6, 25e6)
	case tierVPS:
		cfg.AccessBandwidth = uniformF(rng, 25e6, 60e6)
	case tierDedicated:
		cfg.AccessBandwidth = uniformF(rng, 60e6, 125e6)
	case tierFarm:
		cfg.AccessBandwidth = uniformF(rng, 125e6, 600e6)
	}
	// Replicated farms share the multiplied link in websim, so scale the
	// per-replica figure back down.
	if cfg.Replicas > 1 {
		cfg.AccessBandwidth /= float64(cfg.Replicas)
	}

	// Query caching: most production sites cache; the paper's Small Query
	// stage still hits shared back-end capacity via unique queries.
	if rng.Float64() < 0.7 {
		cfg.QueryCacheBytes = 16 << 20
	}
	return cfg
}

// siteFor generates a band-appropriate content tree.
func siteFor(b Band, name string, seed int64, rng *rand.Rand) *content.Site {
	gc := content.GenConfig{}
	switch b {
	case Rank1K, Rank10K:
		gc = content.GenConfig{Pages: 60, Queries: 120, Binaries: 8, LargeObjects: 4,
			MaxLargeObjectSize: 400 * 1024}
	case Rank100K, Rank1M:
		gc = content.GenConfig{Pages: 30, Queries: 40, Binaries: 6, LargeObjects: 3,
			MaxLargeObjectSize: 400 * 1024}
	case Startup:
		gc = content.GenConfig{Pages: 20, Queries: 60, Binaries: 4, LargeObjects: 2,
			MaxLargeObjectSize: 300 * 1024}
	case Phishing:
		// Phishing sites are a handful of pages and a form; many host no
		// large object at all (§5.3 only ran the Base stage).
		gc = content.GenConfig{Pages: 5, Queries: 4, Binaries: 1, LargeObjects: 1}
	}
	return content.Generate(name+".example.net", seed, gc)
}
