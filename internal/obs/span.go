package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"mfc/internal/clock"
)

// SpanRecorder is the wall-clock half of the tracing story: where Tracer
// reconstructs *virtual* time inside one simulation, SpanRecorder records
// what the fleet actually did — which worker held which shard when, how
// long each job really took, how long a poller idled. It is built for
// week-long campaigns: spans live in a bounded ring (appending past the
// capacity overwrites the oldest and counts it dropped, so the recorder
// can never OOM however long the campaign runs), the record hot path is
// one short mutex hold with zero steady-state allocations (ring slots and
// their attribute storage are reused in place), and a flusher drains the
// ring to a sink — a spans.jsonl next to the shards, or the control
// plane's POST /api/spans — well before it wraps.
//
// Spans form a tree per trace: every Start takes an optional parent span
// id, and the campaign-wide trace id (deterministic from the plan, or
// adopted from the control plane's X-Mfc-Trace header) ties the workers'
// files together so `mfc-campaign trace` can merge them into one fleet
// trace. A nil *SpanRecorder is a valid no-op recorder: every method is
// nil-safe, so instrumented code needs no conditionals.
type SpanRecorder struct {
	worker string

	mu      sync.Mutex
	trace   string
	nextID  uint64
	clk     clock.Clock // spans are stamped in its unix microseconds
	ring    []Span      // preallocated slot storage, reused in place
	head    int         // index of the oldest live slot
	count   int         // live slots
	dropped uint64

	open     []openSpan
	freeOpen []int
}

// openSpan is one started-but-unfinished span. Slots are recycled through
// freeOpen; gen disambiguates a SpanRef whose slot was recycled after
// CloseOpen already finished it.
type openSpan struct {
	used bool
	gen  uint64
	span Span
}

// SpanAttr is one key/value annotation on a span.
type SpanAttr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// A is shorthand for building a SpanAttr.
func A(k, v string) SpanAttr { return SpanAttr{Key: k, Val: v} }

// ABool renders a bool attribute.
func ABool(k string, v bool) SpanAttr {
	if v {
		return SpanAttr{Key: k, Val: "true"}
	}
	return SpanAttr{Key: k, Val: "false"}
}

// AInt renders an integer attribute.
func AInt(k string, v int64) SpanAttr { return SpanAttr{Key: k, Val: fmt.Sprintf("%d", v)} }

// Span is one completed wall-clock span. Times are unix microseconds.
// This struct is also the JSONL wire format: one span per line in a
// worker's spans file and in /api/spans batches.
type Span struct {
	Trace   string     `json:"trace,omitempty"`
	ID      uint64     `json:"id"`
	Parent  uint64     `json:"parent,omitempty"`
	Name    string     `json:"name"`
	Cat     string     `json:"cat,omitempty"`
	Worker  string     `json:"worker"`
	Shard   int        `json:"shard"` // -1: worker-level, not tied to a shard
	Start   int64      `json:"start_us"`
	End     int64      `json:"end_us"`
	Partial bool       `json:"partial,omitempty"` // force-closed at shutdown, not ended by its owner
	Attrs   []SpanAttr `json:"attrs,omitempty"`
}

// Dur returns the span's wall-clock duration.
func (s *Span) Dur() time.Duration { return time.Duration(s.End-s.Start) * time.Microsecond }

// Attr returns the value of the named attribute ("" if absent).
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// DefaultSpanCapacity bounds the ring when NewSpanRecorder is given no
// capacity. At ~200 bytes a span the worst case is a few tens of MB —
// and in practice the flusher drains the ring every few hundred ms.
const DefaultSpanCapacity = 65536

// NewSpanRecorder returns a recorder whose spans carry the given worker
// name. capacity <= 0 selects DefaultSpanCapacity.
func NewSpanRecorder(worker string, capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanRecorder{
		worker: worker,
		clk:    clock.Real,
		ring:   make([]Span, capacity),
	}
}

// Worker returns the recorder's worker name ("" on a nil recorder).
func (r *SpanRecorder) Worker() string {
	if r == nil {
		return ""
	}
	return r.worker
}

// SetTrace sets the trace id stamped on subsequently recorded spans —
// the propagation hook: filesystem workers derive it from the plan,
// networked workers adopt the control plane's X-Mfc-Trace header.
func (r *SpanRecorder) SetTrace(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.trace = id
	r.mu.Unlock()
}

// Trace returns the current trace id.
func (r *SpanRecorder) Trace() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace
}

// SpanRef names one started span. The zero SpanRef (and any ref on a nil
// recorder) is a valid no-op.
type SpanRef struct {
	r    *SpanRecorder
	slot int
	gen  uint64
	id   uint64
}

// ID returns the span id, the value to pass as children's parent.
func (ref SpanRef) ID() uint64 { return ref.id }

// Start opens a span. shard ties the span to a result shard (-1 for
// worker-level spans: idle waits, the work root); parent is the enclosing
// span's ID (0 for roots). The span is not visible to Drain until End —
// except through CloseOpen, which force-closes it as partial.
func (r *SpanRecorder) Start(name, cat string, shard int, parent uint64) SpanRef {
	if r == nil {
		return SpanRef{}
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	var slot int
	if n := len(r.freeOpen); n > 0 {
		slot = r.freeOpen[n-1]
		r.freeOpen = r.freeOpen[:n-1]
	} else {
		r.open = append(r.open, openSpan{})
		slot = len(r.open) - 1
	}
	o := &r.open[slot]
	o.used = true
	o.gen++
	gen := o.gen
	o.span.Trace = r.trace
	o.span.ID = id
	o.span.Parent = parent
	o.span.Name = name
	o.span.Cat = cat
	o.span.Worker = r.worker
	o.span.Shard = shard
	o.span.Start = r.clk.Now().UnixMicro()
	o.span.End = 0
	o.span.Partial = false
	o.span.Attrs = o.span.Attrs[:0]
	r.mu.Unlock()
	return SpanRef{r: r, slot: slot, gen: gen, id: id}
}

// End finishes the span, attaching the given attributes, and appends it
// to the ring. Ending a span CloseOpen already finished is a no-op, so a
// shutdown flush racing a worker goroutine cannot double-record.
func (ref SpanRef) End(attrs ...SpanAttr) {
	r := ref.r
	if r == nil {
		return
	}
	r.mu.Lock()
	if ref.slot >= len(r.open) {
		r.mu.Unlock()
		return
	}
	o := &r.open[ref.slot]
	if !o.used || o.gen != ref.gen {
		r.mu.Unlock()
		return
	}
	o.span.End = r.clk.Now().UnixMicro()
	o.span.Attrs = append(o.span.Attrs, attrs...)
	r.appendLocked(&o.span)
	// Return the slot, keeping its attr storage for reuse.
	o.span.Attrs = o.span.Attrs[:0]
	o.used = false
	r.freeOpen = append(r.freeOpen, ref.slot)
	r.mu.Unlock()
}

// Event records an instantaneous (zero-duration) span — a shard claim, a
// fence, a takeover marker.
func (r *SpanRecorder) Event(name, cat string, shard int, parent uint64, attrs ...SpanAttr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nextID++
	now := r.clk.Now().UnixMicro()
	sp := Span{
		Trace: r.trace, ID: r.nextID, Parent: parent,
		Name: name, Cat: cat, Worker: r.worker, Shard: shard,
		Start: now, End: now, Attrs: attrs,
	}
	r.appendLocked(&sp)
	r.mu.Unlock()
}

// appendLocked copies *sp into the next ring slot, reusing the slot's
// attribute storage; a full ring overwrites the oldest span.
func (r *SpanRecorder) appendLocked(sp *Span) {
	var pos int
	if r.count < len(r.ring) {
		pos = (r.head + r.count) % len(r.ring)
		r.count++
	} else {
		pos = r.head
		r.head = (r.head + 1) % len(r.ring)
		r.dropped++
	}
	dst := &r.ring[pos]
	attrs := append(dst.Attrs[:0], sp.Attrs...)
	*dst = *sp
	dst.Attrs = attrs
}

// CloseOpen force-closes every open span as partial, appending each to
// the ring. The shutdown path calls it so an interrupted worker's final
// in-flight job and shard still land in the trace.
func (r *SpanRecorder) CloseOpen() {
	if r == nil {
		return
	}
	r.mu.Lock()
	now := r.clk.Now().UnixMicro()
	for i := range r.open {
		o := &r.open[i]
		if !o.used {
			continue
		}
		o.span.End = now
		o.span.Partial = true
		r.appendLocked(&o.span)
		o.span.Attrs = o.span.Attrs[:0]
		o.used = false
		o.gen++ // a late End on the original ref must be a no-op
		r.freeOpen = append(r.freeOpen, i)
	}
	r.mu.Unlock()
}

// Drain removes every completed span from the ring and returns them,
// oldest first, appended to buf. The returned spans are deep copies: the
// recorder's reusable storage is never aliased out.
func (r *SpanRecorder) Drain(buf []Span) []Span {
	if r == nil {
		return buf
	}
	r.mu.Lock()
	for i := 0; i < r.count; i++ {
		sp := r.ring[(r.head+i)%len(r.ring)]
		if len(sp.Attrs) > 0 {
			sp.Attrs = append([]SpanAttr(nil), sp.Attrs...)
		} else {
			sp.Attrs = nil
		}
		buf = append(buf, sp)
	}
	r.head, r.count = 0, 0
	r.mu.Unlock()
	return buf
}

// Len returns how many completed spans wait in the ring.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped returns how many spans the ring overwrote before they were
// drained — nonzero means the flusher fell behind the producers.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// DeterministicTraceID derives a stable trace id from identifying parts
// (typically the plan name and seed), so every worker of one campaign —
// filesystem or networked — lands in the same trace without coordination.
func DeterministicTraceID(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteSpansJSONL writes one span per line in the JSONL wire format.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpansJSONL reads spans back from a JSONL stream, appending to buf.
// Torn or malformed lines (a killed writer's final partial line) are
// skipped, never fatal: a crashed worker's file must still load.
func ReadSpansJSONL(r io.Reader, buf []Span) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var sp Span
		if err := json.Unmarshal(line, &sp); err != nil {
			continue // torn tail or foreign junk: skip the line, keep the file
		}
		buf = append(buf, sp)
	}
	return buf, sc.Err()
}
