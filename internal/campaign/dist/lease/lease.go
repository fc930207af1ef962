// Package lease is the campaign store's crash-safe file-lease protocol:
// one JSON lease file per claimable resource (a result shard, or the whole
// store for a control plane), created atomically, renewed by heartbeat,
// and taken over when its owner goes stale.
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
// Takeover arbitration: a contender first renames the stale lease file to
// a unique tombstone — rename succeeds for exactly one contender, every
// loser sees ENOENT and retries — and then creates the successor lease
// with an atomic link. A fresh lease is never renamed; the only window in
// which two processes can both believe they hold a lease is a heartbeat
// landing between a contender's staleness read and its rename, which the
// TTL margin makes unlikely and the store's dedupe makes harmless.
package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"
)

// Info is the decoded contents of one lease file.
type Info struct {
	Name  string `json:"name"`  // resource name, e.g. "shard-0003" or "store"
	Owner string `json:"owner"` // unique per acquisition (see DefaultOwner)
	Gen   int64  `json:"gen"`   // fencing generation, +1 per takeover
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
// before the lease is treated as corrupt: without it, a garbage file with
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

// Path returns the lease file for resource name under dir.
func Path(dir, name string) string { return filepath.Join(dir, name+".lease") }

var ownerSeq atomic.Int64

// DefaultOwner returns a process-unique owner id: host, pid and an
// in-process sequence number, so two acquisitions in one process can never
// mistake each other's lease for their own.
func DefaultOwner() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown-host"
	}
	return fmt.Sprintf("%s-%d-%d", host, os.Getpid(), ownerSeq.Add(1))
}

// Handle is a held lease. It is not safe for concurrent use; the typical
// shape is one goroutine heartbeating while the owner works.
type Handle struct {
	dir  string
	info Info
}

// pathNonce numbers every temp and tombstone file this process creates.
// It is process-wide, not per handle: contenders in one process share a
// pid, and two of them writing the same temp path would let the loser
// truncate the inode the winner has just linked in as the live lease.
var pathNonce atomic.Int64

// scratchPath returns a path next to name's lease file that no other
// handle, in this process or another, will ever use.
func (h *Handle) scratchPath(name, kind string) string {
	return fmt.Sprintf("%s.%s.%d.%d", Path(h.dir, name), kind, os.Getpid(), pathNonce.Add(1))
}

// Owner returns the handle's owner id.
func (h *Handle) Owner() string { return h.info.Owner }

// Gen returns the lease generation; a value above 1 means this acquisition
// took the lease over from a stale owner.
func (h *Handle) Gen() int64 { return h.info.Gen }

// TookOver reports whether this acquisition displaced a stale owner.
func (h *Handle) TookOver() bool { return h.info.Gen > 1 }

// Read parses the lease file for name under dir. It returns
// os.ErrNotExist when no lease exists and an ErrCorrupt-wrapped error for
// any content that cannot be a live lease; it never panics, whatever the
// file holds.
func Read(dir, name string) (*Info, error) {
	data, err := os.ReadFile(Path(dir, name))
	if err != nil {
		return nil, err
	}
	return parse(data)
}

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
	if info.TTLNanos < 0 {
		return nil, fmt.Errorf("%w: negative ttl %d", ErrCorrupt, info.TTLNanos)
	}
	if hb := time.Unix(0, info.HeartbeatUnixNano); hb.After(time.Now().Add(maxClockSkew)) {
		return nil, fmt.Errorf("%w: heartbeat %v is in the future", ErrCorrupt, hb)
	}
	return &info, nil
}

// Stale reports whether the lease's owner should be considered dead: its
// heartbeat is older than the TTL the owner declared in the lease
// (fallback covers records written before TTLs were recorded; maxTTL
// bounds hostile values), or it was taken on this host by a process that
// no longer exists (which makes takeover after a kill -9 immediate
// instead of waiting out the TTL).
func (info *Info) Stale(fallback time.Duration) bool {
	ttl := time.Duration(info.TTLNanos)
	if ttl <= 0 {
		ttl = fallback
	}
	if ttl > maxTTL {
		ttl = maxTTL
	}
	if time.Since(time.Unix(0, info.HeartbeatUnixNano)) > ttl {
		return true
	}
	if host, err := os.Hostname(); err == nil && host == info.Host && info.PID > 0 {
		if !pidAlive(info.PID) {
			return true
		}
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

// Acquire claims the lease for resource name under dir, creating dir if
// needed. A missing, corrupt or stale lease is taken over (generation
// bumped); a lease held by a live owner returns a HeldError. ttl is the
// staleness bound this handle commits to heartbeat under (recorded in the
// lease, so readers judge the lease by its owner's contract); for an
// incumbent it is only the fallback when the incumbent's record predates
// declared TTLs.
func Acquire(dir, name, owner string, ttl time.Duration) (*Handle, error) {
	if owner == "" {
		return nil, fmt.Errorf("lease: empty owner for %q", name)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("lease: non-positive ttl %v for %q", ttl, name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	h := &Handle{dir: dir}

	// The loop races other contenders: each iteration either observes a
	// live owner (and stops), or wins/loses one atomic step (tombstone
	// rename, create-by-link) and re-reads. Four attempts is far beyond
	// any real contention; exhausting them means the file is churning.
	for attempt := 0; attempt < 4; attempt++ {
		gen := int64(1)
		info, err := Read(dir, name)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Free: fall through to create.
		case errors.Is(err, ErrCorrupt):
			// Provably not a live lease: exactly one contender gets to
			// bury it.
			if ok, terr := h.tombstone(name); terr != nil {
				return nil, terr
			} else if !ok {
				continue // lost the rename race: re-read
			}
		case err != nil:
			// A transient read failure (EIO, EACCES on a shared fs) says
			// nothing about the incumbent — never bury a possibly-live
			// lease over it.
			return nil, err
		default:
			if !info.Stale(ttl) {
				return nil, &HeldError{Name: name, Owner: info.Owner}
			}
			gen = info.Gen + 1
			if ok, terr := h.tombstone(name); terr != nil {
				return nil, terr
			} else if !ok {
				continue
			}
		}

		now := time.Now().UnixNano()
		h.info = Info{
			Name: name, Owner: owner, Gen: gen,
			Host: hostname(), PID: os.Getpid(),
			TTLNanos:         ttl.Nanoseconds(),
			AcquiredUnixNano: now, HeartbeatUnixNano: now,
		}
		created, err := h.create()
		if err != nil {
			return nil, err
		}
		if created {
			return h, nil
		}
		// Another contender created first; the re-read decides held/stale.
	}
	return nil, fmt.Errorf("lease: %q is contended, giving up after retries", name)
}

func hostname() string {
	host, err := os.Hostname()
	if err != nil {
		return "unknown-host"
	}
	return host
}

// tombstone renames the current lease file to a unique name and removes
// it. Rename is the arbitration point: it succeeds for exactly one
// contender; everyone else sees ENOENT and reports false.
func (h *Handle) tombstone(name string) (bool, error) {
	dst := h.scratchPath(name, "stale")
	err := os.Rename(Path(h.dir, name), dst)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	os.Remove(dst)
	return true, nil
}

// create atomically publishes h.info as the lease file, complete or not at
// all: the record is written to a private temp file and linked into place,
// so no reader can ever observe a half-written lease (a half-written file
// would read as corrupt and invite a takeover of a live lease). Returns
// false if someone else's lease already exists.
func (h *Handle) create() (bool, error) {
	data, err := json.Marshal(&h.info)
	if err != nil {
		return false, err
	}
	tmp := h.scratchPath(h.info.Name, "tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	defer os.Remove(tmp)
	err = os.Link(tmp, Path(h.dir, h.info.Name))
	if errors.Is(err, os.ErrExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Verify re-reads the lease file and confirms this handle still owns it.
// Any other state — taken over, removed, corrupt — returns ErrLost: the
// caller is fenced.
func (h *Handle) Verify() error {
	info, err := Read(h.dir, h.info.Name)
	if err != nil {
		return ErrLost
	}
	if info.Owner != h.info.Owner || info.Gen != h.info.Gen {
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
	h.info.HeartbeatUnixNano = time.Now().UnixNano()
	data, err := json.Marshal(&h.info)
	if err != nil {
		return err
	}
	tmp := h.scratchPath(h.info.Name, "tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, Path(h.dir, h.info.Name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Release removes the lease if this handle still owns it; releasing a
// lease that was already taken over returns ErrLost and leaves the
// successor's file untouched.
func (h *Handle) Release() error {
	if err := h.Verify(); err != nil {
		return err
	}
	return os.Remove(Path(h.dir, h.info.Name))
}

// Holder reports who currently holds a live (non-stale) lease on name:
// ok is false when the resource is free, stale or corrupt — i.e. when an
// Acquire would be worth attempting. fallbackTTL only applies to records
// that predate declared TTLs.
func Holder(dir, name string, fallbackTTL time.Duration) (owner string, ok bool) {
	info, err := Read(dir, name)
	if err != nil || info.Stale(fallbackTTL) {
		return "", false
	}
	return info.Owner, true
}

// Live lists the names of all live (non-stale, parseable) leases under
// dir, in lexical order, judging each by its own declared TTL
// (fallbackTTL for legacy records). Tombstones, temp files and stale
// leases are skipped. A missing directory is simply empty.
func Live(dir string, fallbackTTL time.Duration) ([]Info, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []Info
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || filepath.Ext(name) != ".lease" {
			continue
		}
		info, err := Read(dir, name[:len(name)-len(".lease")])
		if err != nil || info.Stale(fallbackTTL) {
			continue
		}
		out = append(out, *info)
	}
	return out, nil
}
