package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mfc/internal/clock"
)

// stepClock reads start, start+step, ... in unix microseconds: every Now
// is one step later than the last.
type stepClock struct {
	clock.Clock // the recorder only reads Now
	next, step  int64
}

func (c *stepClock) Now() time.Time {
	t := c.next
	c.next += c.step
	return time.UnixMicro(t)
}

func fakeClock(r *SpanRecorder, start, step int64) {
	r.clk = &stepClock{next: start, step: step}
}

func TestSpanRecorderBasics(t *testing.T) {
	r := NewSpanRecorder("w1", 16)
	fakeClock(r, 1000, 10)
	r.SetTrace("cafe")

	root := r.Start("work", "work", -1, 0)
	shard := r.Start("shard 3", "shard", 3, root.ID())
	r.Event("claim", "claim", 3, root.ID(), A("gen", "1"))
	shard.End(ABool("sealed", true), AInt("jobs", 4))
	root.End()

	spans := r.Drain(nil)
	if len(spans) != 3 {
		t.Fatalf("drained %d spans, want 3", len(spans))
	}
	// Ring order is completion order: claim event, shard, root.
	claim, sh, work := spans[0], spans[1], spans[2]
	if claim.Name != "claim" || claim.Start != claim.End || claim.Shard != 3 {
		t.Fatalf("claim event wrong: %+v", claim)
	}
	if sh.Name != "shard 3" || sh.Parent != work.ID || sh.End <= sh.Start {
		t.Fatalf("shard span wrong: %+v (root id %d)", sh, work.ID)
	}
	if sh.Attr("sealed") != "true" || sh.Attr("jobs") != "4" {
		t.Fatalf("shard attrs wrong: %+v", sh.Attrs)
	}
	if work.Shard != -1 || work.Trace != "cafe" || work.Worker != "w1" {
		t.Fatalf("work span wrong: %+v", work)
	}
	if r.count != 0 {
		t.Fatalf("ring not emptied by Drain: %d left", r.count)
	}
}

func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	ref := r.Start("x", "y", 0, 0)
	ref.End(A("k", "v"))
	r.Event("e", "c", 1, 0)
	r.CloseOpen()
	r.SetTrace("t")
	if got := r.Drain(nil); len(got) != 0 {
		t.Fatalf("nil recorder drained %d spans", len(got))
	}
	if r.Dropped() != 0 || r.Worker() != "" {
		t.Fatal("nil recorder accessors not zero")
	}
	var zero SpanRef
	zero.End() // must not panic
}

func TestSpanRecorderRingOverflow(t *testing.T) {
	r := NewSpanRecorder("w", 4)
	fakeClock(r, 0, 1)
	for i := 0; i < 7; i++ {
		r.Event("e", "c", i, 0)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	spans := r.Drain(nil)
	if len(spans) != 4 {
		t.Fatalf("drained %d, want 4", len(spans))
	}
	// The survivors are the newest four, oldest first.
	for i, sp := range spans {
		if sp.Shard != i+3 {
			t.Fatalf("span %d has shard %d, want %d (oldest overwritten first)", i, sp.Shard, i+3)
		}
	}
}

// TestSpanRecorderGrowsToCapacity: a fresh recorder holds no slot
// storage, the storage grows as spans arrive but never past the
// capacity, and recording past it without a Drain drops and counts
// exactly the overflow.
func TestSpanRecorderGrowsToCapacity(t *testing.T) {
	const capacity, extra = 100, 7
	r := NewSpanRecorder("w", capacity)
	if cap(r.ring) != 0 {
		t.Fatalf("fresh recorder holds %d slots, want 0", cap(r.ring))
	}
	fakeClock(r, 0, 1)
	for i := 0; i < capacity+extra; i++ {
		r.Event("e", "c", i, 0)
		if cap(r.ring) > capacity {
			t.Fatalf("after %d spans the ring holds %d slots, capacity %d", i+1, cap(r.ring), capacity)
		}
	}
	if got := r.Dropped(); got != extra {
		t.Fatalf("Dropped() = %d, want %d", got, extra)
	}
	spans := r.Drain(nil)
	if len(spans) != capacity {
		t.Fatalf("drained %d, want %d", len(spans), capacity)
	}
	for i, sp := range spans {
		if sp.Shard != i+extra {
			t.Fatalf("span %d has shard %d, want %d (oldest overwritten first)", i, sp.Shard, i+extra)
		}
	}
}

func TestSpanRecorderCloseOpenPartial(t *testing.T) {
	r := NewSpanRecorder("w", 8)
	fakeClock(r, 0, 5)
	ref := r.Start("job 1", "job", 0, 0)
	done := r.Start("job 0", "job", 0, 0)
	done.End()
	r.CloseOpen()

	spans := r.Drain(nil)
	if len(spans) != 2 {
		t.Fatalf("drained %d, want 2", len(spans))
	}
	if spans[0].Partial || spans[0].Name != "job 0" {
		t.Fatalf("completed span mismarked: %+v", spans[0])
	}
	if !spans[1].Partial || spans[1].Name != "job 1" {
		t.Fatalf("open span not closed partial: %+v", spans[1])
	}

	// A late End on the force-closed ref must not double-record, even after
	// the slot is recycled by a new span.
	ref.End()
	again := r.Start("job 2", "job", 0, 0)
	ref.End()
	again.End()
	spans = r.Drain(nil)
	if len(spans) != 1 || spans[0].Name != "job 2" {
		t.Fatalf("late End corrupted the ring: %+v", spans)
	}
}

func TestSpanRecorderDrainCopies(t *testing.T) {
	r := NewSpanRecorder("w", 4)
	fakeClock(r, 0, 1)
	r.Start("a", "c", 0, 0).End(A("k", "first"))
	got := r.Drain(nil)
	// Refill the same ring slots; the drained copy must not change.
	r.Start("b", "c", 1, 0).End(A("k", "second"))
	r.Drain(nil)
	if got[0].Name != "a" || got[0].Attr("k") != "first" {
		t.Fatalf("drained span aliased recorder storage: %+v", got[0])
	}
}

func TestSpansJSONLRoundTripAndTornLines(t *testing.T) {
	spans := []Span{
		{Trace: "t", ID: 1, Name: "work", Worker: "w", Shard: -1, Start: 10, End: 30},
		{Trace: "t", ID: 2, Parent: 1, Name: "job", Cat: "job", Worker: "w", Shard: 2,
			Start: 12, End: 20, Partial: true, Attrs: []SpanAttr{A("site", "7")}},
	}
	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill -9 mid-write: append a torn final line plus junk.
	buf.WriteString(`{"id":3,"name":"tor`)
	buf.WriteString("\nnot json at all\n")

	got, err := ReadSpansJSONL(strings.NewReader(buf.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d spans, want 2 (torn lines skipped)", len(got))
	}
	if got[1].Parent != 1 || !got[1].Partial || got[1].Attr("site") != "7" {
		t.Fatalf("round trip lost fields: %+v", got[1])
	}
}

func TestDeterministicTraceID(t *testing.T) {
	a := DeterministicTraceID("plan", "99")
	if a != DeterministicTraceID("plan", "99") {
		t.Fatal("trace id not deterministic")
	}
	if a == DeterministicTraceID("plan", "100") || a == DeterministicTraceID("pla", "n99") {
		t.Fatal("trace id collisions across distinct inputs")
	}
	if len(a) != 16 {
		t.Fatalf("trace id %q not 16 hex chars", a)
	}
}

func TestSpanRecordSteadyStateAllocs(t *testing.T) {
	r := NewSpanRecorder("w", 256)
	attrs := []SpanAttr{A("k", "v"), A("k2", "v2")}
	// Warm up: grow the open-slot table and attr storage once.
	for i := 0; i < 512; i++ {
		r.Start("job", "job", i%8, 0).End(attrs...)
	}
	r.Drain(nil)
	allocs := testing.AllocsPerRun(200, func() {
		r.Start("job", "job", 3, 0).End(attrs...)
		if r.count >= 128 {
			r.head, r.count = 0, 0 // reset in place; Drain would allocate
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state span record allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkSpanRecord(b *testing.B) {
	r := NewSpanRecorder("bench", 4096)
	attrs := []SpanAttr{A("sealed", "true"), A("jobs", "8")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Start("job", "job", i&7, 0).End(attrs...)
	}
}
