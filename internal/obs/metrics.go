// Package obs is the observability layer: a dependency-free metrics
// registry with Prometheus text-format exposition, a virtual-time span
// tracer that turns the coordinator's typed event stream into Chrome
// trace-event JSON (viewable in Perfetto), and the event→metrics bridge
// that feeds a registry from a run's events.
//
// The registry's hot path is built for measurement loops: a Counter.Inc,
// Gauge.Set or Histogram.Observe is one or two atomic operations and never
// allocates. Label lookups (Vec.With) do allocate, so instrument once and
// hold the child — the bridge pre-resolves every child it touches per
// epoch. Exposition walks the registry under a read lock and renders
// families sorted by name, children sorted by label values, so the output
// bytes are a pure function of the registry state.
package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds metric families and renders them in Prometheus text
// exposition format (WriteTo / ServeHTTP). The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name: its metadata plus its children (one for a
// plain metric, one per label-value combination for a vec).
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string // label names, nil for plain metrics

	buckets []float64 // histogram upper bounds, ascending

	mu       sync.Mutex
	children map[string]*child // key: label values joined with \xff
	keys     []string          // sorted lazily at exposition
	sorted   bool
}

// child is one concrete series.
type child struct {
	labelValues []string

	v atomic.Int64  // counter value
	g atomic.Uint64 // gauge float64 bits
	// fn, when set, computes the value at exposition time. Atomic because
	// function children can be registered dynamically (e.g. a per-worker
	// heartbeat-age gauge on first contact) while a scrape is rendering.
	fn atomic.Pointer[func() float64]

	// histogram state: per-bin counts (len(buckets)+1, last is +Inf),
	// cumulated at exposition.
	bins []atomic.Int64
	sum  atomic.Uint64 // float64 bits
}

// validName reports whether s is in the Prometheus name grammar — metric
// names [a-zA-Z_:][a-zA-Z0-9_:]*, label names the same without ':' — and
// clear of the "__" prefix Prometheus reserves for itself.
func validName(s string, colon bool) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' ||
			c == ':' && colon || c >= '0' && c <= '9' && i > 0) {
			return false
		}
	}
	return true
}

// register finds or creates a family. Every name is a literal in the
// calling code, so a name outside the grammar is a bug and panics rather
// than being rewritten into a series nobody asked for.
func (r *Registry) register(name, help string, typ metricType, labels []string, buckets []float64) *family {
	if !validName(name, true) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l, false) {
			panic("obs: metric " + name + ": invalid label name " + strconv.Quote(l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic("obs: metric " + name + " re-registered with a different schema")
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ, labels: labels,
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

const labelSep = "\xff"

// with returns (creating if needed) the child for the given label values.
func (f *family) with(values ...string) *child {
	if len(values) != len(f.labels) {
		panic("obs: metric " + f.name + " used with wrong label cardinality")
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += labelSep
		}
		key += v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		if f.typ == typeHistogram {
			c.bins = make([]atomic.Int64, len(f.buckets)+1)
		}
		f.children[key] = c
		f.keys = append(f.keys, key)
		f.sorted = false
	}
	return c
}

// sortedKeys returns the children keys in lexicographic order.
func (f *family) sortedKeys() []string {
	if !f.sorted {
		sort.Strings(f.keys)
		f.sorted = true
	}
	return f.keys
}

// addFloat atomically adds v to the float64 stored as bits in u.
func addFloat(u *atomic.Uint64, v float64) {
	for {
		old := u.Load()
		if u.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// A Counter is a monotonically increasing integer.
type Counter struct{ c *child }

// Inc adds one.
func (c Counter) Inc() { c.c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c Counter) Add(n int64) {
	if n > 0 {
		c.c.v.Add(n)
	}
}

// Value returns the current count.
func (c Counter) Value() int64 { return c.c.v.Load() }

// A Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set stores v.
func (g Gauge) Set(v float64) { g.c.g.Store(math.Float64bits(v)) }

// Add adds delta (atomically; negative deltas decrease).
func (g Gauge) Add(delta float64) { addFloat(&g.c.g, delta) }

// Inc adds one.
func (g Gauge) Inc() { g.Add(1) }

// Value returns the current value.
func (g Gauge) Value() float64 { return math.Float64frombits(g.c.g.Load()) }

// A Histogram counts observations into declared cumulative buckets.
type Histogram struct {
	c       *child
	buckets []float64
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	// Linear scan beats binary search at typical bucket counts (≤ 16) and
	// keeps the hot path branch-predictable.
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.c.bins[i].Add(1)
	addFloat(&h.c.sum, v)
}

// Count returns the total number of observations.
func (h Histogram) Count() int64 {
	var n int64
	for i := range h.c.bins {
		n += h.c.bins[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h Histogram) Sum() float64 { return math.Float64frombits(h.c.sum.Load()) }

// Counter registers (or finds) a plain counter.
func (r *Registry) Counter(name, help string) Counter {
	f := r.register(name, help, typeCounter, nil, nil)
	return Counter{f.with()}
}

// Gauge registers (or finds) a plain gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	f := r.register(name, help, typeGauge, nil, nil)
	return Gauge{f.with()}
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — the mechanism that keeps derived surfaces (e.g. a store-scanned
// completion count) from drifting: every scrape calls the same function
// the JSON endpoints call.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, nil, nil)
	f.with().fn.Store(&fn)
}

// Histogram registers (or finds) a histogram with the given ascending
// upper bounds. A final +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram " + name + " buckets not ascending")
		}
	}
	f := r.register(name, help, typeHistogram, nil, append([]float64(nil), buckets...))
	return Histogram{f.with(), f.buckets}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, typeCounter, append([]string(nil), labels...), nil)}
}

// With returns the child for the given label values. Look children up once
// and hold them: With takes the family lock and allocates on first use.
func (v CounterVec) With(values ...string) Counter { return Counter{v.f.with(values...)} }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, typeGauge, append([]string(nil), labels...), nil)}
}

// With returns the child for the given label values (see CounterVec.With).
func (v GaugeVec) With(values ...string) Gauge { return Gauge{v.f.with(values...)} }

// Func binds the child for the given label values to a function computed
// at exposition time — the labeled counterpart of Registry.GaugeFunc.
// Rebinding an existing child replaces its function. Exposition calls fn
// outside the registry and family locks, so fn may take the caller's own
// locks safely.
func (v GaugeVec) Func(fn func() float64, values ...string) {
	v.f.with(values...).fn.Store(&fn)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram " + name + " buckets not ascending")
		}
	}
	return HistogramVec{r.register(name, help, typeHistogram, append([]string(nil), labels...), append([]float64(nil), buckets...))}
}

// With returns the child for the given label values (see CounterVec.With).
func (v HistogramVec) With(values ...string) Histogram {
	return Histogram{v.f.with(values...), v.f.buckets}
}
