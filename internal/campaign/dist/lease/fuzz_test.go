package lease

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// FuzzLease throws arbitrary bytes at a lease file — the states a kill, a
// partial write or a hostile tenant can leave behind — and locks the
// protocol's two invariants: parsing never panics, and the shard range is
// never granted to two owners at once. Whatever the file holds, it reads
// as exactly one of (valid lease, corrupt); a valid fresh lease turns
// every contender away, and anything else admits at most one taker — the
// one whose exclusive create of the next generation lands. Seed corpus:
// testdata/fuzz/FuzzLease plus the seeds below (a live lease, a stale
// lease, a torn half-record, binary junk, hostile timestamps, a record
// with no TTL).
func FuzzLease(f *testing.F) {
	now := time.Now().UnixNano()
	live, _ := json.Marshal(&Info{Name: "shard-0000", Owner: "incumbent", Gen: 3, Host: "other-host", PID: 1,
		TTLNanos: int64(time.Minute), AcquiredUnixNano: now, HeartbeatUnixNano: now})
	stale, _ := json.Marshal(&Info{Name: "shard-0000", Owner: "dead", Gen: 2, Host: "other-host", PID: 1,
		TTLNanos: int64(time.Minute), AcquiredUnixNano: 1, HeartbeatUnixNano: 1})
	f.Add([]byte{})
	f.Add(live)
	f.Add(stale)
	f.Add(live[:len(live)/2])                  // torn mid-write
	f.Add([]byte("\x00\xff\xfe garbage \x01")) // binary junk
	f.Add([]byte(`{"owner":"x","gen":0}`))     // invalid generation
	f.Add([]byte(`{"owner":"","gen":1}`))      // missing owner
	f.Add([]byte(`{"owner":"x","gen":1,` +     // immortal heartbeat
		`"heartbeat_unix_nano":9223372036854775807}`)) //
	f.Add([]byte(`{"owner":"x","gen":-9223372036854775808,` +
		`"heartbeat_unix_nano":-9223372036854775808}`))
	f.Add([]byte("null"))
	f.Add([]byte("[1,2,3]"))
	f.Add([]byte(fmt.Sprintf(`{"owner":"x","gen":1,"heartbeat_unix_nano":%d}`, now))) // fresh, but declares no TTL

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		const name = "shard-0000"
		// The bytes become the lease file of the generation they claim, if
		// they parse, so a valid record is read back as the current lease.
		gen := int64(1)
		if info, err := parse(data); err == nil {
			gen = info.Gen
		}
		if err := os.WriteFile(Path(dir, name, gen), data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Reading arbitrary bytes must never panic, and anything accepted
		// must satisfy the parse invariants.
		info, err := Read(dir, name)
		if err == nil {
			if info.Owner == "" || info.Gen < 1 || info.TTLNanos <= 0 {
				t.Fatalf("Read accepted an invalid lease: %+v", info)
			}
		}

		// Two contenders race the doctored file: the shard range must
		// never end up granted to both.
		const ttl = time.Minute
		hA, errA := Acquire(dir, name, "contender-a", ttl)
		hB, errB := Acquire(dir, name, "contender-b", ttl)
		if errA == nil && errB == nil {
			t.Fatalf("both contenders acquired %q (A gen=%d, B gen=%d)",
				name, hA.info.Gen, hB.info.Gen)
		}
		// Whoever won (if either) must hold a verifiable lease; the loser
		// must see it as held.
		if errA == nil {
			if err := hA.Verify(); err != nil {
				t.Fatalf("winner A cannot verify its own lease: %v", err)
			}
			if !IsHeld(errB) {
				t.Fatalf("loser B got %v, want HeldError", errB)
			}
		}
		if errB == nil {
			if err := hB.Verify(); err != nil {
				t.Fatalf("winner B cannot verify its own lease: %v", err)
			}
		}
		// If neither acquired, both must have been turned away by a live
		// incumbent, and the resource must not deadlock: a third contender
		// either gets the lease (it crossed into staleness meanwhile —
		// a heartbeat near the now-ttl boundary legitimately drifts) or is
		// turned away by a live owner again. Anything else would strand
		// the shard range forever.
		if errA != nil && errB != nil {
			if !IsHeld(errA) || !IsHeld(errB) {
				t.Fatalf("nobody acquired and not held: A=%v B=%v", errA, errB)
			}
			if hC, errC := Acquire(dir, name, "contender-c", ttl); errC != nil {
				if !IsHeld(errC) {
					t.Fatalf("lease admits nobody and is not held: %v", errC)
				}
			} else if err := hC.Verify(); err != nil {
				t.Fatalf("winner C cannot verify its own lease: %v", err)
			}
		}
	})
}
