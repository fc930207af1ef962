package lease

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestAcquireHeartbeatRelease(t *testing.T) {
	dir := t.TempDir()
	h, err := Acquire(dir, "shard-0000", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if h.TookOver() || h.Gen() != 1 {
		t.Fatalf("fresh acquire reported takeover: gen=%d", h.Gen())
	}
	if owner, ok := Holder(dir, "shard-0000", time.Minute); !ok || owner != "owner-a" {
		t.Fatalf("Holder = %q, %v", owner, ok)
	}
	if err := h.Heartbeat(); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if err := h.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, err := Read(dir, "shard-0000"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lease file survived release: %v", err)
	}
}

func TestSecondOwnerFailsFastWhileFresh(t *testing.T) {
	dir := t.TempDir()
	h, err := Acquire(dir, "store", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	_, err = Acquire(dir, "store", "owner-b", time.Minute)
	if !IsHeld(err) {
		t.Fatalf("second acquire on a fresh lease: err=%v, want HeldError", err)
	}
}

// A lease whose owner stops heartbeating goes stale after TTL; the next
// contender takes it over at gen+1 and the old handle is fenced: its
// Heartbeat, Verify and Release all return ErrLost.
func TestStaleTakeoverFencesOldOwner(t *testing.T) {
	dir := t.TempDir()
	a, err := Acquire(dir, "shard-0002", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Age the heartbeat on disk rather than sleeping: rewrite the lease
	// with an old timestamp, exactly what a wedged owner looks like. The
	// pid is zeroed so same-host pid-liveness doesn't mask TTL staleness.
	info, err := Read(dir, "shard-0002")
	if err != nil {
		t.Fatal(err)
	}
	info.HeartbeatUnixNano = time.Now().Add(-time.Hour).UnixNano()
	info.PID = 0
	writeInfo(t, dir, "shard-0002", info)

	b, err := Acquire(dir, "shard-0002", "owner-b", time.Minute)
	if err != nil {
		t.Fatalf("takeover of stale lease: %v", err)
	}
	if !b.TookOver() || b.Gen() != 2 {
		t.Fatalf("takeover gen = %d, want 2", b.Gen())
	}
	if err := a.Heartbeat(); !errors.Is(err, ErrLost) {
		t.Fatalf("old owner heartbeat after takeover: %v, want ErrLost", err)
	}
	if err := a.Verify(); !errors.Is(err, ErrLost) {
		t.Fatalf("old owner verify after takeover: %v, want ErrLost", err)
	}
	if err := a.Release(); !errors.Is(err, ErrLost) {
		t.Fatalf("old owner release after takeover: %v, want ErrLost", err)
	}
	// The successor is unaffected by the fenced owner's attempts.
	if err := b.Heartbeat(); err != nil {
		t.Fatalf("successor heartbeat: %v", err)
	}
}

// A lease held by a dead pid on this host is stale immediately — resume
// after a kill -9 must not wait out the TTL.
func TestDeadPidIsImmediatelyStale(t *testing.T) {
	dir := t.TempDir()
	h, err := Acquire(dir, "shard-0003", "victim", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	_ = h
	info, err := Read(dir, "shard-0003")
	if err != nil {
		t.Fatal(err)
	}
	// Pid 1 is alive on any Linux box; an impossible pid is not.
	info.PID = 1 << 22
	writeInfo(t, dir, "shard-0003", info)

	b, err := Acquire(dir, "shard-0003", "rescuer", time.Hour)
	if err != nil {
		t.Fatalf("takeover of dead-pid lease: %v", err)
	}
	if !b.TookOver() {
		t.Fatal("dead-pid takeover did not bump the generation")
	}
}

// N goroutines race Acquire on one free resource: exactly one wins, the
// rest see HeldError (or a bounded contention error, never a second win).
func TestAcquireRaceSingleWinner(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		wins []string
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := DefaultOwner()
			h, err := Acquire(dir, "shard-0004", owner, time.Minute)
			if err != nil {
				return
			}
			mu.Lock()
			wins = append(wins, h.Owner())
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(wins) != 1 {
		t.Fatalf("winners = %v, want exactly one", wins)
	}
}

// Contenders in one process share a pid, so the temp and tombstone paths
// must be numbered process-wide: with a per-handle counter every handle's
// first temp file was <name>.lease.tmp.<pid>.1, and a loser rewriting it
// truncated the inode the winner had just linked in as the live lease.
func TestHandlesNeverShareScratchPaths(t *testing.T) {
	a, b := &Handle{dir: "d"}, &Handle{dir: "d"}
	seen := make(map[string]bool)
	for i := 0; i < 4; i++ {
		for _, h := range []*Handle{a, b} {
			for _, kind := range []string{"tmp", "stale"} {
				p := h.scratchPath("shard-0000", kind)
				if seen[p] {
					t.Fatalf("scratch path %s handed out twice", p)
				}
				seen[p] = true
			}
		}
	}
}

// Staleness is judged by the TTL the owner declared in the lease, not by
// whatever (shorter) TTL a reader supplies — otherwise a contender with
// `-ttl 1ms` could "expire" any live lease and bypass every guard.
func TestStalenessJudgedByOwnersDeclaredTTL(t *testing.T) {
	dir := t.TempDir()
	h, err := Acquire(dir, "store", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	time.Sleep(5 * time.Millisecond) // age the heartbeat past the reader's ttl

	if _, ok := Holder(dir, "store", time.Millisecond); !ok {
		t.Fatal("live lease judged stale through a reader's shorter ttl")
	}
	if _, err := Acquire(dir, "store", "owner-b", time.Millisecond); !IsHeld(err) {
		t.Fatalf("short-ttl contender displaced a live lease: %v", err)
	}
	live, err := Live(dir, time.Millisecond)
	if err != nil || len(live) != 1 {
		t.Fatalf("Live with short fallback ttl dropped the lease: %v %v", live, err)
	}
}

// A far-future heartbeat must read as corrupt, not as an immortal lease.
func TestFutureHeartbeatIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	h, err := Acquire(dir, "shard-0005", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	_ = h
	info := h.info
	info.HeartbeatUnixNano = time.Now().Add(24 * time.Hour).UnixNano()
	writeInfo(t, dir, "shard-0005", &info)
	if _, err := Read(dir, "shard-0005"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future heartbeat parsed as valid: %v", err)
	}
	if _, err := Acquire(dir, "shard-0005", "owner-b", time.Minute); err != nil {
		t.Fatalf("corrupt lease not taken over: %v", err)
	}
}

func TestLiveListsOnlyFreshLeases(t *testing.T) {
	dir := t.TempDir()
	a, err := Acquire(dir, "shard-0000", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	stale, err := Acquire(dir, "shard-0001", "owner-dead", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	info := stale.info
	info.HeartbeatUnixNano = time.Now().Add(-time.Hour).UnixNano()
	info.PID = 0
	writeInfo(t, dir, "shard-0001", &info)
	if err := os.WriteFile(filepath.Join(dir, "garbage.lease"), []byte("\x00junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	live, err := Live(dir, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0].Name != "shard-0000" {
		t.Fatalf("Live = %+v, want only shard-0000", live)
	}
}

// writeInfo rewrites a lease file with doctored contents (test-only; real
// owners only ever move their own heartbeat forward).
func writeInfo(t *testing.T, dir, name string, info *Info) {
	t.Helper()
	data, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(Path(dir, name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
