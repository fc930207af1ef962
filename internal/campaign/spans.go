package campaign

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mfc/internal/clock"
	"mfc/internal/obs"
)

// SpansDir is where a campaign directory keeps wall-clock span spills:
// one JSONL file per worker, next to the shards they describe.
func SpansDir(dir string) string { return filepath.Join(dir, "spans") }

// SpanFilePath returns the spans file for one worker. Owner names come
// from the command line, so they are sanitized into a safe file name.
func SpanFilePath(dir, owner string) string {
	return filepath.Join(SpansDir(dir), "spans-"+sanitizeOwner(owner)+".jsonl")
}

// sanitizeOwner maps an arbitrary owner string onto a bounded, filesystem
// safe token.
func sanitizeOwner(owner string) string {
	var b strings.Builder
	for _, r := range owner {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= 64 {
			break
		}
	}
	if b.Len() == 0 {
		return "worker"
	}
	return b.String()
}

// SpanWriter appends spans to one worker's JSONL spill file, opened like
// the result store's shard appenders (openAppend): a torn final line from
// a previous kill costs one skippable line, never two.
type SpanWriter struct {
	mu sync.Mutex
	f  *os.File
}

// NewSpanWriter opens (creating the spans dir if needed) the spill file
// for appending.
func NewSpanWriter(path string) (*SpanWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := openAppend(path)
	if err != nil {
		return nil, err
	}
	return &SpanWriter{f: f}, nil
}

// Write appends the spans, one line each.
func (w *SpanWriter) Write(spans []obs.Span) error {
	if len(spans) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return obs.WriteSpansJSONL(w.f, spans)
}

// Close closes the underlying file.
func (w *SpanWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// ReadSpans loads every span spill under dir's spans directory, in
// sorted file order. A campaign with no spans directory yields an empty
// slice — tracing is optional.
func ReadSpans(dir string) ([]obs.Span, error) {
	entries, err := os.ReadDir(SpansDir(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var spans []obs.Span
	for _, name := range names {
		f, err := os.Open(filepath.Join(SpansDir(dir), name))
		if err != nil {
			return nil, err
		}
		spans, err = obs.ReadSpansJSONL(f, spans)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return spans, nil
}

// spanFlush is how often a SpanSpiller drains its recorder. Well under the
// ring's wrap horizon at any plausible span rate.
const spanFlush = 500 * time.Millisecond

// SpanSpiller periodically drains a SpanRecorder into a sink — the spill
// file, the control plane, a Fleet aggregator, or several at once. The
// worker loops own one spiller each; Kick after a shard claim pushes the
// claim event out within one flush interval even if the process dies
// moments later, which is what keeps a kill -9'd worker visible in the
// merged trace. Close force-closes open spans (partial) and flushes them,
// so SIGINT still yields a loadable trace. A nil *SpanSpiller is a no-op.
type SpanSpiller struct {
	rec     *obs.SpanRecorder
	sink    func([]obs.Span)
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	onClose func()
}

// NewSpanSpiller starts the flush loop, ticking every spanFlush on clk;
// sink is called with each non-empty batch, oldest first, and must not
// retain the slice across calls.
func NewSpanSpiller(clk clock.Clock, rec *obs.SpanRecorder, sink func([]obs.Span)) *SpanSpiller {
	sp := &SpanSpiller{
		rec:  rec,
		sink: sink,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	t := clk.NewTicker(spanFlush)
	go func() {
		defer close(sp.done)
		defer t.Stop()
		var buf []obs.Span
		for {
			select {
			case <-sp.stop:
				return
			case <-t.C:
			case <-sp.kick:
			}
			buf = sp.flush(buf)
		}
	}()
	return sp
}

func (sp *SpanSpiller) flush(buf []obs.Span) []obs.Span {
	buf = sp.rec.Drain(buf[:0])
	if len(buf) > 0 {
		sp.sink(buf)
	}
	return buf
}

// Kick requests an immediate flush (coalesced if one is pending).
func (sp *SpanSpiller) Kick() {
	if sp == nil {
		return
	}
	select {
	case sp.kick <- struct{}{}:
	default:
	}
}

// Close stops the loop, force-closes open spans as partial, and flushes
// everything left in the ring.
func (sp *SpanSpiller) Close() {
	if sp == nil {
		return
	}
	close(sp.stop)
	<-sp.done
	sp.rec.CloseOpen()
	sp.flush(nil)
	if sp.onClose != nil {
		sp.onClose()
	}
}

// StartSpanSpill wires a recorder to the campaign directory: it opens the
// owner's spill file under dir/spans and starts a spiller whose sink
// appends there (best-effort — spans are observability, never authority)
// and, when tee is non-nil, also hands each batch to tee (the live
// dashboard's Fleet feed). A nil recorder returns a nil spiller, which is
// safe to Kick and Close.
func StartSpanSpill(clk clock.Clock, rec *obs.SpanRecorder, dir string, tee func([]obs.Span)) (*SpanSpiller, error) {
	if rec == nil {
		return nil, nil
	}
	w, err := NewSpanWriter(SpanFilePath(dir, rec.Worker()))
	if err != nil {
		return nil, err
	}
	sp := NewSpanSpiller(clk, rec, func(spans []obs.Span) {
		w.Write(spans)
		if tee != nil {
			tee(spans)
		}
	})
	sp.onClose = func() { w.Close() }
	return sp, nil
}

// PlanTraceID is the campaign's deterministic fleet-wide trace id: every
// worker of one plan derives the same value, so their span files merge
// into a single trace with no coordination.
func PlanTraceID(p *Plan) string {
	return obs.DeterministicTraceID(p.Name, strconv.FormatInt(p.Seed, 10))
}
