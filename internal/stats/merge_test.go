package stats

import (
	"math"
	"math/rand"
	"testing"
)

// Merging per-shard Running summaries must equal one bulk accumulation over
// the concatenated sample — the identity the campaign report rests on.
func TestRunningMergeEqualsBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs []float64
	for i := 0; i < 1000; i++ {
		xs = append(xs, rng.NormFloat64()*30+100)
	}

	var bulk Running
	for _, x := range xs {
		bulk.Add(x)
	}

	// Split into uneven shards, accumulate each, merge in shard order.
	var merged Running
	for lo := 0; lo < len(xs); {
		hi := lo + 1 + rng.Intn(200)
		if hi > len(xs) {
			hi = len(xs)
		}
		var shard Running
		for _, x := range xs[lo:hi] {
			shard.Add(x)
		}
		merged.Merge(shard)
		lo = hi
	}

	if merged.N != bulk.N || merged.Min != bulk.Min || merged.Max != bulk.Max {
		t.Fatalf("merged %+v != bulk %+v", merged, bulk)
	}
	// Sums agree up to float re-association (different grouping, same data).
	if math.Abs(merged.Sum-bulk.Sum) > 1e-9*math.Abs(bulk.Sum) {
		t.Fatalf("sums diverged: merged %+v bulk %+v", merged, bulk)
	}

	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if mean := sum / float64(len(xs)); math.Abs(merged.Mean()-mean) > 1e-9 {
		t.Errorf("Mean = %v, want %v", merged.Mean(), mean)
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Errorf("empty Running: mean %v", r.Mean())
	}
	r.Add(5)
	if r.Mean() != 5 || r.Min != 5 || r.Max != 5 {
		t.Errorf("single Running: %+v", r)
	}
	var other Running
	other.Merge(r)
	if other.N != 1 || other.Min != 5 {
		t.Errorf("merge into empty: %+v", other)
	}
	other.Merge(Running{}) // merging an empty summary is a no-op
	if other.N != 1 {
		t.Errorf("merge of empty changed state: %+v", other)
	}
}

// IntHist quantiles must agree exactly with the type-7 Quantile over the
// expanded multiset, including after arbitrary shard merges.
func TestIntHistQuantileMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var expanded []float64
	var bulk IntHist
	var merged IntHist
	shard := &IntHist{}
	for i := 0; i < 500; i++ {
		v := rng.Intn(50) * 5 // clustered values, many ties
		expanded = append(expanded, float64(v))
		bulk.Add(v)
		shard.Add(v)
		if rng.Intn(40) == 0 {
			merged.Merge(shard)
			shard = &IntHist{}
		}
	}
	merged.Merge(shard)

	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		want, err := Quantile(expanded, q)
		if err != nil {
			t.Fatal(err)
		}
		for name, h := range map[string]*IntHist{"bulk": &bulk, "merged": &merged} {
			got, err := h.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s q=%v: got %v, want %v", name, q, got, want)
			}
		}
	}
}

func TestIntHistEmpty(t *testing.T) {
	var h IntHist
	if _, err := h.Quantile(0.5); err != ErrEmpty {
		t.Errorf("empty quantile err = %v, want ErrEmpty", err)
	}
	h.Merge(nil) // nil merge is a no-op
	h.Merge(&IntHist{})
	if h.N != 0 {
		t.Errorf("empty merges changed state: %+v", h)
	}
}
