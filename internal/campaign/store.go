package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mfc/internal/campaign/dist/lease"
	"mfc/internal/clock"
	"mfc/internal/core"
)

// Record is one completed job, one JSONL line in its shard file. The
// compact fields are what the aggregate report consumes; Result carries
// the full per-epoch data for offline analysis.
type Record struct {
	Job      int    `json:"job"`
	Site     string `json:"site"`
	Band     string `json:"band"`
	Stage    string `json:"stage"`
	Scenario string `json:"scenario,omitempty"` // "" for clean cells

	Verdict      string `json:"verdict"`
	Stop         int    `json:"stop,omitempty"`         // confirmed stopping crowd (0 = none)
	FirstExceed  int    `json:"first_exceed,omitempty"` // earliest >θ crowd (footnote 2)
	Requests     int    `json:"requests,omitempty"`     // total requests scheduled
	SimElapsedNs int64  `json:"sim_elapsed_ns,omitempty"`
	Err          string `json:"err,omitempty"` // measurement failure; job counts as errored

	Result *core.Result `json:"result,omitempty"`
}

// Store is the append-only sharded result store of one campaign directory:
//
//	dir/plan.json             immutable campaign identity
//	dir/shards/shard-NNNN.jsonl  one Record per line, jobs [N·ShardJobs, (N+1)·ShardJobs)
//
// Records land in completion order within their shard; the Reader restores
// job order per shard and drops duplicates, which is all any fold needs
// for determinism. Lines that fail to parse (a torn write from a kill) are
// skipped — the job simply counts as not done and reruns on resume.
type Store struct {
	dir       string
	shardJobs int

	mu    sync.Mutex
	files map[int]*os.File // open shard appenders

	lock     *lease.Handle // exclusive store lease (OpenStoreLocked only)
	stopBeat func()        // ends its keep-alive
}

// OpenStore opens (creating if needed) the result store under dir for
// appending. This opener takes no lock: it is for writers whose shard
// ownership is coordinated externally — every worker holds a lease per
// shard instead of locking the whole store. Readers use OpenReader, which
// creates nothing.
func OpenStore(dir string, shardJobs int) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "shards"), 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, shardJobs: shardJobs, files: make(map[int]*os.File)}, nil
}

// LeasesDir is where a campaign directory keeps its lease files: the
// per-shard "shard-NNNN" leases and a control plane's exclusive "store"
// lease.
func LeasesDir(dir string) string { return filepath.Join(dir, "leases") }

// ShardLeaseName is the lease resource name for result shard k.
func ShardLeaseName(k int) string { return fmt.Sprintf("shard-%04d", k) }

// OpenStoreLocked opens the store for a writer that owns the whole
// directory — the `serve` control plane, which grants shards itself: it
// acquires the exclusive "store" lease (taking over a stale one, so a
// restart after a kill works) and refuses to proceed while any live shard
// lease exists, so a control plane and filesystem workers never mix on one
// directory (workers check the "store" lease in turn). The lease is
// heartbeated until Close; if it is ever lost (this process wedged past
// the TTL and someone took over), onLost is called once so the caller can
// abort instead of split-braining. onLost may be nil.
func OpenStoreLocked(clk clock.Clock, dir string, shardJobs int, owner string, ttl time.Duration, onLost func()) (*Store, error) {
	s, err := OpenStore(dir, shardJobs)
	if err != nil {
		return nil, err
	}
	ld := LeasesDir(dir)
	lk, err := lease.AcquireOn(clk, ld, "store", owner, ttl)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s is in use: %w", dir, err)
	}
	live, _ := lease.Live(ld, clk.Now()) // leases that cannot be listed cannot be shown live
	for _, info := range live {
		if info.Name != "store" {
			lk.Release()
			return nil, fmt.Errorf("campaign: %s has live worker lease %q held by %q; wait for the run/work processes on it to finish",
				dir, info.Name, info.Owner)
		}
	}
	s.lock = lk
	if onLost == nil {
		onLost = func() {}
	}
	s.stopBeat = startKeepAlive(context.Background(), clk, ttl,
		func(context.Context) error { return lk.Heartbeat() }, onLost)
	return s, nil
}

// shardPath returns the path of shard k's file under campaign dir.
func shardPath(dir string, k int) string {
	return filepath.Join(dir, "shards", fmt.Sprintf("shard-%04d.jsonl", k))
}

// Append streams completed jobs' records to their shard files, one Write
// per run of consecutive records of one shard, so a batch of one shard is
// one Write. Safe for concurrent use; each Write holds whole lines, so the
// only partial-line risk is an actual kill.
func (s *Store) Append(recs ...*Record) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // Marshal's bytes plus the newline
	for i := 0; i < len(recs); {
		shard := recs[i].Job / s.shardJobs
		buf.Reset()
		for ; i < len(recs) && recs[i].Job/s.shardJobs == shard; i++ {
			if err := enc.Encode(recs[i]); err != nil {
				return fmt.Errorf("campaign: encoding record for job %d: %w", recs[i].Job, err)
			}
		}
		if err := s.write(shard, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// write appends whole lines to shard's file, opening its appender first.
func (s *Store) write(shard int, lines []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[shard]
	if !ok {
		var err error
		if f, err = openAppend(shardPath(s.dir, shard)); err != nil {
			return err
		}
		s.files[shard] = f
	}
	_, err := f.Write(lines)
	return err
}

// openAppend opens a JSONL file (a result shard, a span spill) for
// appending, first terminating any unterminated final line: a kill
// mid-append leaves a torn line with no trailing newline, and appending
// straight after it would weld the next record onto the garbage, losing
// both. Sealing the tear with a newline turns it into one skippable bad
// line.
func openAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size := st.Size(); size > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, size-1); err != nil {
			f.Close()
			return nil, err
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return f, nil
}

// CloseShard closes shard k's appender, if one is open: a writer calls it
// when it gives the shard up, so it holds open only the shards it is
// writing, not every shard it ever wrote. A later Append reopens.
func (s *Store) CloseShard(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[k]
	if !ok {
		return nil
	}
	delete(s.files, k)
	return f.Close()
}

// Close closes every open shard appender and, for a locked store, stops
// the heartbeat and releases the exclusive lease.
func (s *Store) Close() error {
	if s.lock != nil {
		s.stopBeat()
		s.lock.Release() // ErrLost just means someone already took over
		s.lock = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for k, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, k)
	}
	return first
}

// ShardScanner decodes shard files with reusable scratch: the line buffer
// and the record slice survive across Scan calls, so a full-store scan
// (Summarize, analyze, resume's Completed) costs one buffer however many
// shards it visits instead of allocating per shard. Each line is decoded
// in one validating pass (decodeLine); compact scans validate the Result
// payload, most of each line's bytes, but never build it.
//
// Not safe for concurrent use; give each goroutine its own scanner.
type ShardScanner struct {
	// Skipped accumulates, over every scan, the lines that were passed
	// over; the Reader adds the duplicates it drops.
	Skipped Skipped

	buf  []byte   // bufio.Scanner backing buffer, grown once
	recs []Record // returned slice, reused across Scan calls
}

// NewShardScanner returns a scanner ready for its first Scan.
func NewShardScanner() *ShardScanner {
	return &ShardScanner{buf: make([]byte, 0, 1<<20)}
}

// resultSkip discards the "result" subtree when a compact scan hands a
// non-canonical line to encoding/json: the subtree is still validated (so
// torn lines are detected exactly as in full scans) but nothing is built.
type resultSkip struct{}

func (*resultSkip) UnmarshalJSON([]byte) error { return nil }

// compactRecord is that fallback's target, a Record with the Result
// payload skipped: its own "result" field, being shallower, takes the key
// from the embedded one.
type compactRecord struct {
	Record
	Result resultSkip `json:"result"`
}

// Scan decodes shard k's records in file order (completion order),
// skipping unparseable (torn) lines and out-of-range job indexes. With
// full set, each record carries its decoded Result; without it, Result is
// left nil and the payload is skipped unparsed. The returned slice is
// valid only until the next Scan call (the Result pointers inside it stay
// valid — only the slice itself is recycled).
func (sc *ShardScanner) Scan(s *Store, k, totalJobs int, full bool) ([]Record, error) {
	sc.recs = sc.recs[:0]
	err := sc.scan(shardPath(s.dir, k), s.shardJobs, k, totalJobs, full)
	return sc.recs, err
}

// scan appends the records of one shard file to sc.recs; a missing file
// holds none.
func (sc *ShardScanner) scan(path string, shardJobs, k, totalJobs int, full bool) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()

	br := bufio.NewScanner(f)
	br.Buffer(sc.buf, 16<<20) // full Results can be long lines
	for br.Scan() {
		var rec Record
		err = decodeLine(br.Bytes(), &rec, full)
		switch {
		case err != nil:
			sc.Skipped.Torn++ // torn write: the job reruns
		case rec.Job < 0 || rec.Job >= totalJobs || rec.Job/shardJobs != k:
			sc.Skipped.Foreign++ // foreign or corrupt index: ignore
		default:
			sc.recs = append(sc.recs, rec)
		}
	}
	return br.Err()
}

// Completed scans every shard and reports which jobs already hold a valid
// record. The scan needs only the store's shape, so a one-cell plan of
// that shape stands in for plan.json.
func (s *Store) Completed(totalJobs int) (map[int]bool, error) {
	r := &Reader{
		plan: &Plan{Cells: make([]Cell, 1), Sites: totalJobs, ShardJobs: s.shardJobs},
		dirs: []string{s.dir}, sc: NewShardScanner(),
	}
	done, err := r.Done()
	if err != nil {
		return nil, err
	}
	set := make(map[int]bool)
	for j, d := range done {
		if d {
			set[j] = true
		}
	}
	return set, nil
}

// Manifest and WriteManifest are a leaf nothing in this module calls: no
// campaign code writes or reads manifest.json any more. They stay only
// because benchmark/ladder_store.go and benchmark/trace.go still time the
// write, and are deletable by the next benchmark-kind PR that drops those
// two calls.
type Manifest struct {
	Plan     string `json:"plan"`
	Total    int    `json:"total_jobs"`
	Done     int    `json:"done_jobs"`
	PerShard []int  `json:"per_shard_done"`
}

// WriteManifest atomically replaces dir/manifest.json.
func WriteManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, "manifest.json"), append(data, '\n'))
}
