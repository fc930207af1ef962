package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored: counters only go up
	c.Add(0)  // ignored
	if got := c.Value(); got != 6 {
		t.Errorf("counter = %d, want 6", got)
	}
	// Re-registering the same name returns a handle onto the same series.
	c2 := r.Counter("jobs_total", "Jobs.")
	c2.Inc()
	if got := c.Value(); got != 7 {
		t.Errorf("after re-register inc, counter = %d, want 7", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "Depth.")
	g.Set(10)
	g.Add(-2.5)
	g.Inc()
	if got := g.Value(); got != 8.5 {
		t.Errorf("gauge = %v, want 8.5", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.GaugeFunc("live", "Computed at scrape.", func() float64 { return v })
	var sb strings.Builder
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), "live 3\n") {
		t.Errorf("exposition missing live 3:\n%s", sb.String())
	}
	v = 4 // the function, not a snapshot, is registered
	sb.Reset()
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), "live 4\n") {
		t.Errorf("exposition missing live 4:\n%s", sb.String())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 55.65 {
		t.Errorf("sum = %v, want 55.65", got)
	}
	// Bucket placement: le is an upper (inclusive) bound.
	var sb strings.Builder
	r.WriteTo(&sb)
	for _, want := range []string{
		`lat_bucket{le="0.1"} 2`, // 0.05 and 0.1
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_count 5`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("events_total", "Events.", "kind")
	v.With("a").Inc()
	v.With("b").Add(2)
	v.With("a").Inc() // same child
	if got := v.With("a").Value(); got != 2 {
		t.Errorf(`With("a") = %d, want 2`, got)
	}
	if got := v.With("b").Value(); got != 2 {
		t.Errorf(`With("b") = %d, want 2`, got)
	}
}

func TestSchemaConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Error("re-registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestLabelCardinalityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("y_total", "Y.", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("With with one value for a two-label vec did not panic")
		}
	}()
	v.With("only-one")
}

func TestBucketsMustAscend(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("non-ascending buckets did not panic")
		}
	}()
	r.Histogram("bad", "Bad.", []float64{1, 1})
}

// Registration refuses a name outside the Prometheus grammar instead of
// rewriting it: every name is a literal, so a bad one is a bug.
func TestRegisterRejectsInvalidNames(t *testing.T) {
	for _, c := range []struct{ name, label string }{
		{"band a/b", "band"},
		{"9lives", "band"},
		{"", "band"},
		{"__reserved", "band"},
		{"mfc_ok", "scenario name"},
		{"mfc_ok", "a:b"},
		{"mfc_ok", "__name__"},
		{"mfc_ok", "0x"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CounterVec(%q, %q) did not panic", c.name, c.label)
				}
			}()
			NewRegistry().CounterVec(c.name, "Bad.", c.label)
		}()
	}
	r := NewRegistry()
	r.CounterVec("mfc:recording:rule", "Colons are metric-only.", "Band_9").With("loss 5%").Inc()
	var sb strings.Builder
	r.WriteTo(&sb)
	if want := `mfc:recording:rule{Band_9="loss 5%"} 1`; !strings.Contains(sb.String(), want+"\n") {
		t.Errorf("exposition missing %q:\n%s", want, sb.String())
	}
}

// Concurrent increments across goroutines must not lose updates (the hot
// path is atomic, not locked). Run with -race in CI.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "N.")
	g := r.Gauge("sum", "Sum.")
	h := r.Histogram("obs", "Obs.", []float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 || h.Sum() != 4000 {
		t.Errorf("histogram count=%d sum=%v, want 8000/4000", h.Count(), h.Sum())
	}
}
