// Package lease is the campaign store's crash-safe file-lease protocol:
// one JSON lease file per claimable resource (a result shard, or the whole
// store for a control plane) and generation, created atomically, renewed
// by heartbeat, and superseded when its owner goes stale.
//
// The protocol assumes only a filesystem with atomic create-by-link and
// rename (any local filesystem; NFS with close-to-open consistency is
// good enough because correctness of the campaign store never depends on
// the lease — records are deterministic per job and the reader dedupes —
// the lease only prevents duplicated work).
//
// Lifecycle:
//
//	Acquire ──► held ──Heartbeat──► held ──Release──► free
//	               │
//	               └─(no heartbeat for TTL, or owner pid dead on this
//	                  host, or unparseable file)──► stale ──takeover──►
//	                  held by new owner at gen+1; old owner's next
//	                  Heartbeat/Verify returns ErrLost (fencing)
//
// A lease file is named <name>.g<gen>.lease and the highest generation on
// disk owns the name. Free or stale, a name is claimed the same way: one
// exclusive link(2) of generation highest+1, which succeeds for exactly
// one contender — so each (name, generation) has one winner by
// construction, and a contender acting on an old read finds its generation
// taken and loses. The winner removes the files it superseded; nothing is
// ever renamed or removed out from under a live owner. The one way a live
// owner loses its lease is a heartbeat landing after a contender's
// staleness read: the contender still wins the next generation and the
// owner's next Verify reports ErrLost — wasted work, which the store's
// dedupe makes harmless.
package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mfc/internal/clock"
)

// Info is the decoded contents of one lease file.
type Info struct {
	Name  string `json:"name"`  // resource name, e.g. "shard-0003" or "store"
	Owner string `json:"owner"` // unique per acquisition (see DefaultOwner)
	Gen   int64  `json:"gen"`   // fencing generation: one above the highest on disk at acquisition
	Host  string `json:"host"`
	PID   int    `json:"pid"`

	// TTLNanos is the staleness bound the OWNER committed to heartbeat
	// under. Staleness is judged against this, not against whatever TTL a
	// reader happens to use — otherwise a reader with a shorter TTL would
	// "expire" a perfectly live lease (and e.g. bypass a control plane's
	// store lock).
	TTLNanos int64 `json:"ttl_nano,omitempty"`

	AcquiredUnixNano  int64 `json:"acquired_unix_nano"`
	HeartbeatUnixNano int64 `json:"heartbeat_unix_nano"`
}

// maxClockSkew bounds how far in the future a heartbeat may claim to be
// before the lease is treated as stale: without it, a garbage file with
// a far-future timestamp would hold its resource forever.
const maxClockSkew = time.Minute

// maxTTL caps the TTL a lease file can declare for itself: a corrupt or
// hostile record must not be able to hold a shard unstealable forever.
const maxTTL = time.Hour

// DefaultTTL is the staleness bound campaign stores and workers use when
// the caller does not choose one: long enough that a healthy owner
// heartbeating at TTL/3 never goes stale under scheduling jitter, short
// enough that cross-host takeover after a crash is prompt. (Same-host
// crashes are detected immediately via pid liveness, not the TTL.)
const DefaultTTL = 15 * time.Second

// ErrLost is returned by Heartbeat, Verify and Release when the lease has
// been taken over (or removed) since acquisition: the caller is fenced and
// must stop claiming work under this lease.
var ErrLost = errors.New("lease: lost (taken over or removed)")

// ErrCorrupt wraps parse/validation failures of a lease file.
var ErrCorrupt = errors.New("lease: corrupt lease file")

// HeldError reports a lease that is held by a live owner.
type HeldError struct {
	Name  string
	Owner string
}

func (e *HeldError) Error() string {
	return fmt.Sprintf("lease: %q is held by %q", e.Name, e.Owner)
}

// IsHeld reports whether err is a HeldError (the resource is busy, not
// broken — callers typically wait and retry).
func IsHeld(err error) bool {
	var h *HeldError
	return errors.As(err, &h)
}

// Path returns the lease file of generation gen for resource name under
// dir.
func Path(dir, name string, gen int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.g%d.lease", name, gen))
}

// fileGen splits a lease file name into resource name and generation.
func fileGen(file string) (name string, gen int64, ok bool) {
	base, ok := strings.CutSuffix(file, ".lease")
	i := strings.LastIndex(base, ".g")
	if !ok || i < 0 {
		return "", 0, false
	}
	gen, err := strconv.ParseInt(base[i+2:], 10, 64)
	return base[:i], gen, err == nil && gen >= 1
}

// list reads dir's lease files: resource name -> the generations on disk.
// A missing directory holds none.
func list(dir string) (map[string][]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	gens := make(map[string][]int64)
	for _, ent := range ents {
		if name, gen, ok := fileGen(ent.Name()); ok {
			gens[name] = append(gens[name], gen)
		}
	}
	return gens, nil
}

var ownerSeq atomic.Int64

// DefaultOwner returns a process-unique owner id: host, pid and an
// in-process sequence number, so two acquisitions in one process can never
// mistake each other's lease for their own.
func DefaultOwner() string {
	return fmt.Sprintf("%s-%d-%d", hostname(), os.Getpid(), ownerSeq.Add(1))
}

func hostname() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		return "unknown-host"
	}
	return host
}

// Handle is a held lease. It is not safe for concurrent use; the typical
// shape is one goroutine heartbeating while the owner works.
type Handle struct {
	clk       clock.Clock
	dir       string
	info      Info
	displaced bool
}

// tmpNonce numbers every temp file this process creates. It is
// process-wide, not per handle: contenders in one process share a pid, and
// two of them writing the same temp path would let the loser truncate the
// inode the winner has just linked in as the live lease.
var tmpNonce atomic.Int64

// tmpPath returns a path next to the handle's lease file that no other
// handle, in this process or another, will ever use.
func (h *Handle) tmpPath() string {
	return filepath.Join(h.dir, fmt.Sprintf("%s.tmp.%d.%d", h.info.Name, os.Getpid(), tmpNonce.Add(1)))
}

// TookOver reports whether this acquisition displaced a stale owner or a
// corrupt record.
func (h *Handle) TookOver() bool { return h.displaced }

// Read parses the current lease for name under dir — the highest
// generation on disk. It returns os.ErrNotExist when no lease exists and
// an ErrCorrupt-wrapped error for any content that cannot be a lease; it
// never panics, whatever the file holds.
func Read(dir, name string) (*Info, error) {
	all, err := list(dir)
	if err != nil {
		return nil, err
	}
	if len(all[name]) == 0 {
		return nil, os.ErrNotExist
	}
	return readGen(dir, name, slices.Max(all[name]))
}

func readGen(dir, name string, gen int64) (*Info, error) {
	data, err := os.ReadFile(Path(dir, name, gen))
	if err != nil {
		return nil, err
	}
	info, err := parse(data)
	if err == nil && info.Gen != gen {
		return nil, fmt.Errorf("%w: generation %d in the file of generation %d", ErrCorrupt, info.Gen, gen)
	}
	return info, err
}

// parse decodes and validates one lease record; it is a pure function of
// its bytes. Whether the heartbeat is plausible is Stale's question — only
// a caller knows what time it is.
func parse(data []byte) (*Info, error) {
	var info Info
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if info.Owner == "" {
		return nil, fmt.Errorf("%w: missing owner", ErrCorrupt)
	}
	if info.Gen < 1 {
		return nil, fmt.Errorf("%w: generation %d", ErrCorrupt, info.Gen)
	}
	if info.TTLNanos <= 0 {
		return nil, fmt.Errorf("%w: ttl %d", ErrCorrupt, info.TTLNanos)
	}
	return &info, nil
}

// Stale reports whether, at now, the lease's owner should be considered
// dead: its heartbeat is older than the TTL the owner declared in the
// lease (maxTTL bounds hostile values) or implausibly far in the future,
// or it was taken on this host by a process that no longer exists (which
// makes takeover after a kill -9 immediate instead of waiting out the
// TTL).
func (info *Info) Stale(now time.Time) bool {
	age := now.Sub(time.Unix(0, info.HeartbeatUnixNano))
	if age > min(time.Duration(info.TTLNanos), maxTTL) || age < -maxClockSkew {
		return true
	}
	if host, err := os.Hostname(); err == nil && host == info.Host && info.PID > 0 {
		return !pidAlive(info.PID)
	}
	return false
}

// pidAlive probes a local pid with signal 0. EPERM still means alive.
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// Acquire claims the lease for resource name under dir on the real clock,
// creating dir if needed. A missing, corrupt or stale lease is claimed at
// the next generation; a lease held by a live owner — or lost to a
// concurrent contender — returns a HeldError. ttl is the staleness bound
// this handle commits to heartbeat under (recorded in the lease, so
// readers judge the lease by its owner's contract).
func Acquire(dir, name, owner string, ttl time.Duration) (*Handle, error) {
	return AcquireOn(clock.Real, dir, name, owner, ttl)
}

// AcquireOn is Acquire with staleness judged, and heartbeats stamped, on
// clk.
func AcquireOn(clk clock.Clock, dir, name, owner string, ttl time.Duration) (*Handle, error) {
	if owner == "" {
		return nil, fmt.Errorf("lease: empty owner for %q", name)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("lease: non-positive ttl %v for %q", ttl, name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	now := clk.Now()
	gens, displaced, err := observe(dir, name, now)
	if err != nil {
		return nil, err
	}
	h := &Handle{clk: clk, dir: dir, displaced: displaced, info: Info{
		Name: name, Owner: owner, Gen: 1,
		Host: hostname(), PID: os.Getpid(),
		TTLNanos:         ttl.Nanoseconds(),
		AcquiredUnixNano: now.UnixNano(), HeartbeatUnixNano: now.UnixNano(),
	}}
	if len(gens) > 0 {
		h.info.Gen = slices.Max(gens) + 1
	}
	created, err := h.create()
	if err != nil {
		return nil, err
	}
	if !created {
		// A contender acting on the same observation linked this generation
		// first; it holds the name now.
		held := &HeldError{Name: name}
		if info, err := readGen(dir, name, h.info.Gen); err == nil {
			held.Owner = info.Owner
		}
		return nil, held
	}
	for _, gen := range gens {
		os.Remove(Path(dir, name, gen)) // superseded: Read ignores it while a higher generation exists
	}
	return h, nil
}

// observe is the read half of an acquisition: the generations of name on
// disk, and whether the highest is a stale or corrupt lease this
// acquisition would displace. A live one is a HeldError. A highest
// generation that vanished since the listing was released or superseded —
// nothing is displaced, and if it was superseded the create loses.
func observe(dir, name string, now time.Time) (gens []int64, displaced bool, err error) {
	all, err := list(dir)
	if gens = all[name]; err != nil || len(gens) == 0 {
		return nil, false, err
	}
	info, err := readGen(dir, name, slices.Max(gens))
	switch {
	case errors.Is(err, os.ErrNotExist):
		return gens, false, nil
	case errors.Is(err, ErrCorrupt):
		return gens, true, nil
	case err != nil:
		// A transient read failure (EIO, EACCES on a shared fs) says
		// nothing about the incumbent — never supersede a possibly-live
		// lease over it.
		return nil, false, err
	case !info.Stale(now):
		return nil, false, &HeldError{Name: name, Owner: info.Owner}
	}
	return gens, true, nil
}

// publish writes h.info to a private temp file and moves it onto the
// handle's lease path with op — os.Link to create it exclusively,
// os.Rename to replace it — so no reader can ever observe a half-written
// lease (which would read as corrupt and invite a takeover of a live one).
func (h *Handle) publish(op func(tmp, path string) error) error {
	data, err := json.Marshal(&h.info)
	if err != nil {
		return err
	}
	tmp := h.tmpPath()
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	defer os.Remove(tmp)
	return op(tmp, Path(h.dir, h.info.Name, h.info.Gen))
}

// create claims the handle's generation. It reports false if that
// generation already has an owner.
func (h *Handle) create() (bool, error) {
	err := h.publish(os.Link)
	if errors.Is(err, os.ErrExist) {
		return false, nil
	}
	return err == nil, err
}

// Verify confirms this handle still owns the name: the highest generation
// on disk is its own. Any other state — taken over, removed, corrupt —
// returns ErrLost: the caller is fenced.
func (h *Handle) Verify() error {
	info, err := Read(h.dir, h.info.Name)
	if err != nil || info.Owner != h.info.Owner || info.Gen != h.info.Gen {
		return ErrLost
	}
	return nil
}

// Heartbeat renews the lease's staleness clock (atomic replace). It
// verifies ownership first and returns ErrLost when fenced; owners must
// heartbeat at a period comfortably under ttl (ttl/3 is conventional).
func (h *Handle) Heartbeat() error {
	if err := h.Verify(); err != nil {
		return err
	}
	h.info.HeartbeatUnixNano = h.clk.Now().UnixNano()
	return h.publish(os.Rename)
}

// Release removes the lease if this handle still owns it; releasing a
// lease that was already taken over returns ErrLost and leaves the
// successor's file untouched.
func (h *Handle) Release() error {
	if err := h.Verify(); err != nil {
		return err
	}
	return os.Remove(Path(h.dir, h.info.Name, h.info.Gen))
}

// Live lists the current lease of every name under dir that is live at
// now (parseable, not stale by its own declared TTL), in lexical order. A
// missing directory is simply empty.
func Live(dir string, now time.Time) ([]Info, error) {
	all, err := list(dir)
	if err != nil {
		return nil, err
	}
	var out []Info
	for name, gens := range all {
		if info, err := readGen(dir, name, slices.Max(gens)); err == nil && !info.Stale(now) {
			out = append(out, *info)
		}
	}
	slices.SortFunc(out, func(a, b Info) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}
