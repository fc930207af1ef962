package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mfc/internal/clock/clocktest"
)

func testClock() *clocktest.Clock {
	return clocktest.New(time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC))
}

func TestAcquireHeartbeatRelease(t *testing.T) {
	dir := t.TempDir()
	h, err := Acquire(dir, "shard-0000", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if h.TookOver() || h.info.Gen != 1 {
		t.Fatalf("fresh acquire reported takeover: gen=%d", h.info.Gen)
	}
	if info, err := Read(dir, "shard-0000"); err != nil || info.Owner != "owner-a" || info.Stale(time.Now()) {
		t.Fatalf("Read = %+v, %v; want owner-a's live lease", info, err)
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
// contender claims gen+1, removes the superseded file, and the old handle
// is fenced: its Heartbeat, Verify and Release all return ErrLost.
func TestStaleTakeoverFencesOldOwner(t *testing.T) {
	dir, clk := t.TempDir(), testClock()
	a, err := AcquireOn(clk, dir, "shard-0002", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	if _, err := AcquireOn(clk, dir, "shard-0002", "owner-b", time.Minute); !IsHeld(err) {
		t.Fatalf("acquire at exactly the TTL: %v, want HeldError", err)
	}
	clk.Advance(time.Nanosecond)
	b, err := AcquireOn(clk, dir, "shard-0002", "owner-b", time.Minute)
	if err != nil {
		t.Fatalf("takeover of stale lease: %v", err)
	}
	if !b.TookOver() || b.info.Gen != 2 {
		t.Fatalf("takeover gen = %d, want 2", b.info.Gen)
	}
	if files := leaseFiles(t, dir); len(files) != 1 || files[0] != "shard-0002.g2.lease" {
		t.Fatalf("leases dir holds %v after the takeover, want only generation 2", files)
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
	// Pid 1 is alive on any Linux box; an impossible pid is not.
	info := h.info
	info.PID = 1 << 22
	writeInfo(t, dir, &info)

	b, err := Acquire(dir, "shard-0003", "rescuer", time.Hour)
	if err != nil {
		t.Fatalf("takeover of dead-pid lease: %v", err)
	}
	if !b.TookOver() {
		t.Fatal("dead-pid takeover did not bump the generation")
	}
}

// N goroutines race Acquire on one free resource: exactly one wins, the
// rest see HeldError, never a second win.
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
				if !IsHeld(err) {
					t.Errorf("losing contender got %v, want HeldError", err)
				}
				return
			}
			mu.Lock()
			wins = append(wins, h.info.Owner)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(wins) != 1 {
		t.Fatalf("winners = %v, want exactly one", wins)
	}
}

// The ABA schedule: a slow contender c2 reads generation 1 as stale, then
// stalls while c1 takes the lease over at generation 2 and heartbeats it.
// When c2 resumes on its old read it must lose — under rename-by-path
// takeover it buried c1's fresh generation 2, was handed generation 2
// itself, and the live, heartbeating c1 was fenced without ever going
// stale. The steps replayed are AcquireOn's own.
func TestSlowContenderCannotBuryFreshSuccessor(t *testing.T) {
	dir, clk := t.TempDir(), testClock()
	const name = "shard-0006"
	if _, err := AcquireOn(clk, dir, name, "dead", time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)

	gens, displaced, err := observe(dir, name, clk.Now())
	if err != nil || !displaced || len(gens) != 1 || gens[0] != 1 {
		t.Fatalf("c2's observation = %v, %v, %v; want stale generation 1", gens, displaced, err)
	}

	c1, err := AcquireOn(clk, dir, name, "c1", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Heartbeat(); err != nil {
		t.Fatal(err)
	}

	c2 := &Handle{clk: clk, dir: dir, info: Info{Name: name, Owner: "c2", Gen: gens[0] + 1,
		TTLNanos: int64(time.Minute), HeartbeatUnixNano: clk.Now().UnixNano()}}
	created, err := c2.create()
	if err != nil || created {
		t.Fatalf("c2's create of generation 2 = %v, %v; want to lose to c1", created, err)
	}
	if err := c1.Verify(); err != nil {
		t.Errorf("c1.Verify() = %v: the live owner was fenced", err)
	}
	if err := c2.Verify(); !errors.Is(err, ErrLost) {
		t.Errorf("c2.Verify() = %v, want ErrLost: two owners hold generation 2", err)
	}
	if _, err := AcquireOn(clk, dir, name, "c2", time.Minute); !IsHeld(err) {
		t.Errorf("c2's whole acquisition against live c1: %v, want HeldError", err)
	}
}

// contender is one participant of the interleaving schedule.
type contender struct {
	owner    string
	ttl      time.Duration
	h        *Handle   // nil while not holding
	lastBeat time.Time // fake-clock time of the acquisition or last good heartbeat
	lapsed   bool      // looked stale at some instant since lastBeat: may legitimately be lost
}

// A seeded schedule of acquire / heartbeat / expire / takeover / release /
// clock-step operations by four contenders on one name, on the fake clock.
// After every operation: at most one handle verifies; a handle that has
// heartbeated inside its declared TTL throughout is never lost; no
// generation is handed out twice while the name stays claimed; and once the
// schedule quiesces the directory holds at most one lease file.
func TestInterleavedContendersOneOwner(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir, clk := t.TempDir(), testClock()
			const name = "shard-0007"
			cs := make([]*contender, 4)
			for i := range cs {
				cs[i] = &contender{owner: fmt.Sprint("c", i), ttl: time.Duration(10+10*i) * time.Second}
			}
			won := make(map[int64]string) // generation -> winner since the name was last free
			// A holder lapses once its last beat is a TTL old — or, after the
			// clock was stepped back, implausibly far in the future.
			lapse := func() {
				for _, c := range cs {
					if age := clk.Now().Sub(c.lastBeat); c.h != nil && (age > c.ttl || age < -time.Minute) {
						c.lapsed = true
					}
				}
			}
			for step := 0; step < 300; step++ {
				c := cs[rng.Intn(len(cs))]
				switch op := rng.Intn(10); {
				case op < 3 && c.h == nil: // acquire
					h, err := AcquireOn(clk, dir, name, c.owner, c.ttl)
					if err != nil {
						if !IsHeld(err) {
							t.Fatalf("step %d: %s acquire: %v", step, c.owner, err)
						}
						break
					}
					if prev, dup := won[h.info.Gen]; dup {
						t.Fatalf("step %d: generation %d won by %s and again by %s", step, h.info.Gen, prev, c.owner)
					}
					won[h.info.Gen] = c.owner
					c.h, c.lastBeat, c.lapsed = h, clk.Now(), false
				case op < 6 && c.h != nil: // heartbeat
					switch err := c.h.Heartbeat(); {
					case err == nil:
						c.lastBeat, c.lapsed = clk.Now(), false
					case !errors.Is(err, ErrLost):
						t.Fatalf("step %d: %s heartbeat: %v", step, c.owner, err)
					case !c.lapsed:
						t.Fatalf("step %d: %s heartbeated inside its %v TTL and was still lost", step, c.owner, c.ttl)
					default:
						c.h = nil
					}
				case op == 6 && c.h != nil: // release
					if err := c.h.Release(); err == nil {
						clear(won) // the name is free: generations restart
					} else if !errors.Is(err, ErrLost) || !c.lapsed {
						t.Fatalf("step %d: %s release (lapsed=%v): %v", step, c.owner, c.lapsed, err)
					}
					c.h = nil
				case op == 7: // time passes: part of a TTL, or several
					clk.Advance(time.Duration(rng.Int63n(int64(45 * time.Second))))
					lapse()
				case op == 8: // the wall clock is stepped: back a little, or far ahead
					if rng.Intn(2) == 0 {
						clk.Set(clk.Now().Add(-time.Duration(rng.Int63n(int64(50 * time.Second)))))
					} else {
						clk.Set(clk.Now().Add(time.Minute + time.Duration(rng.Int63n(int64(time.Hour)))))
					}
					lapse()
				}
				holders := 0
				for _, c := range cs {
					if c.h != nil && c.h.Verify() == nil {
						holders++
					}
				}
				if holders > 1 {
					t.Fatalf("step %d: %d handles verify at once", step, holders)
				}
			}
			if files := leaseFiles(t, dir); len(files) > 1 {
				t.Errorf("quiesced leases dir holds %v, want at most one file", files)
			}
		})
	}
}

// Temp files must be numbered process-wide: contenders in one process
// share a pid, and with a per-handle counter every handle's first temp
// file had the same path, so a loser rewriting it truncated the inode the
// winner had just linked in as the live lease.
func TestHandlesNeverShareScratchPaths(t *testing.T) {
	a, b := &Handle{dir: "d", info: Info{Name: "shard-0000"}}, &Handle{dir: "d", info: Info{Name: "shard-0000"}}
	seen := make(map[string]bool)
	for i := 0; i < 4; i++ {
		for _, h := range []*Handle{a, b} {
			p := h.tmpPath()
			if seen[p] {
				t.Fatalf("temp path %s handed out twice", p)
			}
			if _, _, ok := fileGen(filepath.Base(p)); ok {
				t.Fatalf("temp path %s reads as a lease file", p)
			}
			seen[p] = true
		}
	}
}

// Staleness is judged by the TTL the owner declared in the lease, not by
// whatever (shorter) TTL a contender brings — otherwise one with `-ttl
// 1ms` could "expire" any live lease and bypass every guard.
func TestStalenessJudgedByOwnersDeclaredTTL(t *testing.T) {
	dir, clk := t.TempDir(), testClock()
	h, err := AcquireOn(clk, dir, "store", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	clk.Advance(5 * time.Millisecond) // past the contender's ttl, well inside the owner's

	if _, err := AcquireOn(clk, dir, "store", "owner-b", time.Millisecond); !IsHeld(err) {
		t.Fatalf("short-ttl contender displaced a live lease: %v", err)
	}
	if live, err := Live(dir, clk.Now()); err != nil || len(live) != 1 {
		t.Fatalf("Live dropped the lease: %v %v", live, err)
	}
}

// A lease that declares no positive TTL is corrupt, stealable like any
// other invalid record: Acquire has always written one.
func TestLeaseWithoutTTLIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	h, err := Acquire(dir, "shard-0008", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	info := h.info
	info.TTLNanos = 0
	writeInfo(t, dir, &info)
	if _, err := Read(dir, "shard-0008"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("TTL-less lease parsed as valid: %v", err)
	}
	if b, err := Acquire(dir, "shard-0008", "owner-b", time.Minute); err != nil || !b.TookOver() {
		t.Fatalf("TTL-less lease not taken over: %v", err)
	}
}

// A far-future heartbeat must read as stale, not as an immortal lease.
func TestFutureHeartbeatIsCorrupt(t *testing.T) {
	dir, clk := t.TempDir(), testClock()
	h, err := AcquireOn(clk, dir, "shard-0005", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	info := h.info
	info.HeartbeatUnixNano = clk.Now().Add(24 * time.Hour).UnixNano()
	writeInfo(t, dir, &info)
	if got, err := Read(dir, "shard-0005"); err != nil || !got.Stale(clk.Now()) {
		t.Fatalf("future heartbeat reads as a live lease: %+v, %v", got, err)
	}
	if _, err := AcquireOn(clk, dir, "shard-0005", "owner-b", time.Minute); err != nil {
		t.Fatalf("future-heartbeat lease not taken over: %v", err)
	}
}

func TestLiveListsOnlyFreshLeases(t *testing.T) {
	dir, clk := t.TempDir(), testClock()
	if _, err := AcquireOn(clk, dir, "shard-0001", "owner-dead", time.Minute); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	a, err := AcquireOn(clk, dir, "shard-0000", "owner-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	if err := os.WriteFile(Path(dir, "garbage", 1), []byte("\x00junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	live, err := Live(dir, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0].Name != "shard-0000" {
		t.Fatalf("Live = %+v, want only shard-0000", live)
	}
}

// leaseFiles lists the lease files (not temp files) under dir.
func leaseFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.lease"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range files {
		files[i] = filepath.Base(files[i])
	}
	return files
}

// writeInfo rewrites the lease file of info's generation with doctored
// contents (test-only; real owners only ever move their own heartbeat
// forward).
func writeInfo(t *testing.T, dir string, info *Info) {
	t.Helper()
	data, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(Path(dir, info.Name, info.Gen), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
