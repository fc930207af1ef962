package netsim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// The kernel's pinned traces. Every scenario below drives one deterministic
// workload and requires its trace to equal the section of
// testdata/kernel_traces.golden named after it. The pins were taken when
// an eager reference kernel (waterfill on every flow change) still ran
// beside the batched one and produced the same bytes, so they are what
// "the batched flush is invisible" means. The adversarial same-instant
// cases each get a scenario; a seeded random workload adds breadth.
// Regenerate only for an intentional behaviour change:
//
//	go test ./internal/netsim -run Differential -update

var updateTraces = flag.Bool("update", false, "rewrite testdata/kernel_traces.golden from this tree")

const tracesPath = "testdata/kernel_traces.golden"

// scenario drives one deterministic workload, appending observable facts
// (virtual times, byte counts, completion order) to the trace.
type scenario func(env *Env, trace *[]string)

// checkTrace runs sc on a fresh environment and fails the test if its trace
// differs from the pinned section name; with -update it rewrites that
// section instead.
func checkTrace(t *testing.T, name string, seed int64, sc scenario) {
	t.Helper()
	env := NewEnv(seed)
	var trace []string
	sc(env, &trace)
	trace = append(trace, fmt.Sprintf("end now=%v", env.Now()))
	got := strings.Join(trace, "\n")

	// The golden file is a run of sections: "== name", then its trace.
	data, err := os.ReadFile(tracesPath)
	if err != nil && !*updateTraces {
		t.Fatal(err)
	}
	var names []string
	pinned := map[string]string{}
	for _, sec := range strings.Split("\n"+string(data), "\n== ")[1:] {
		n, body, _ := strings.Cut(strings.TrimSuffix(sec, "\n"), "\n")
		names = append(names, n)
		pinned[n] = body
	}
	if *updateTraces {
		if _, ok := pinned[name]; !ok {
			names = append(names, name)
		}
		pinned[name] = got
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "== %s\n%s\n", n, pinned[n])
		}
		if err := os.WriteFile(tracesPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := pinned[name]
	if !ok {
		t.Fatalf("%s: no pinned trace in %s (generate with -update)", name, tracesPath)
	}
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		t.Fatalf("%s: trace diverged from the pin at line %d\n  want: %.120s\n  got:  %.120s",
			name, i, strings.Join(wl[i:], " | "), strings.Join(gl[i:], " | "))
	}
}

// logf appends one formatted observation to the trace.
func logf(trace *[]string, format string, args ...any) {
	*trace = append(*trace, fmt.Sprintf(format, args...))
}

// A synchronized wave: many flows with distinct caps arrive at the same
// instant — the exact case batching collapses from N waterfills to one.
// Every completion time and the final byte count must match the pin.
func TestDifferentialSynchronizedWave(t *testing.T) {
	checkTrace(t, "wave", 1, func(env *Env, trace *[]string) {
		link := env.NewLink("l", 1e6)
		for i := 0; i < 24; i++ {
			i := i
			env.Go(fmt.Sprintf("w%02d", i), func(p *Proc) {
				// All arrive at t=0 with caps that straddle the fair share.
				link.Transfer(p, float64(1000*(i+1)), float64(30e3+7e3*i))
				logf(trace, "w%02d done at %v", i, p.Now())
			})
		}
		env.Run(0)
		logf(trace, "bytes=%.6f completed=%d", link.BytesSent(), link.FlowsCompleted())
	})
}

// A flow added and removed in the same instant (TransferTimeout with a
// zero deadline) must leave the surviving flows' rates — and therefore
// their completion times — equal to the pin.
func TestDifferentialAddRemoveSameInstant(t *testing.T) {
	checkTrace(t, "add-remove", 2, func(env *Env, trace *[]string) {
		link := env.NewLink("l", 1000)
		for i := 0; i < 3; i++ {
			i := i
			env.Go(fmt.Sprintf("long%d", i), func(p *Proc) {
				link.Transfer(p, 400, 0)
				logf(trace, "long%d done at %v", i, p.Now())
			})
		}
		env.GoAfter("blip", 100*time.Millisecond, func(p *Proc) {
			// Arrives and gives up at the same instant: the flow set is
			// mutated twice at t=100ms with zero net effect.
			ok := link.TransferTimeout(p, 1e9, 0, 0)
			logf(trace, "blip ok=%v at %v active=%d", ok, p.Now(), link.Active())
		})
		env.Run(0)
		logf(trace, "bytes=%.6f", link.BytesSent())
	})
}

// A link touched several times at one instant — a scheduled completion, two
// arrivals, and an abort all at the same timestamp.
func TestDifferentialLinkTouchedTwice(t *testing.T) {
	checkTrace(t, "touched-twice", 3, func(env *Env, trace *[]string) {
		link := env.NewLink("l", 1000)
		env.Go("first", func(p *Proc) {
			// Alone on the link: 500 bytes at 1000 B/s completes exactly at
			// t=500ms, the instant everything else below happens.
			link.Transfer(p, 500, 0)
			logf(trace, "first done at %v", p.Now())
		})
		for i := 0; i < 2; i++ {
			i := i
			env.GoAfter(fmt.Sprintf("joiner%d", i), 500*time.Millisecond, func(p *Proc) {
				link.Transfer(p, 250, 0)
				logf(trace, "joiner%d done at %v", i, p.Now())
			})
		}
		env.GoAfter("quitter", 500*time.Millisecond, func(p *Proc) {
			ok := link.TransferTimeout(p, 1e9, 0, 0)
			logf(trace, "quitter ok=%v at %v", ok, p.Now())
		})
		env.Run(0)
		logf(trace, "bytes=%.6f completed=%d", link.BytesSent(), link.FlowsCompleted())
	})
}

// A proc dying at the same timestamp a new proc spawns (and is recycled
// into it) while both touch the same link.
func TestDifferentialDeathAndSpawnSameInstant(t *testing.T) {
	checkTrace(t, "death-spawn", 4, func(env *Env, trace *[]string) {
		link := env.NewLink("l", 1000)
		done := env.NewEvent()
		env.Go("dying", func(p *Proc) {
			link.Transfer(p, 300, 0) // done at t=300ms, then the proc exits
			logf(trace, "dying done at %v", p.Now())
			done.Trigger()
		})
		env.Go("watcher", func(p *Proc) {
			p.Wait(done)
			// Same instant as the death: spawn a successor (which reuses
			// the dead proc's pooled incarnation) that re-touches the link.
			env.Go("heir", func(q *Proc) {
				link.Transfer(q, 100, 0)
				logf(trace, "heir %q done at %v", q.Name(), q.Now())
			})
			logf(trace, "watcher spawned at %v", p.Now())
		})
		env.Run(0)
		logf(trace, "bytes=%.6f", link.BytesSent())
	})
}

// Seeded random churn across two links and a resource: sleeps, transfers,
// tight timeouts, and aborts drawn from the environment RNG. Eight seeds;
// any behavioral change shows up as a trace diff.
func TestDifferentialRandomChurn(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkTrace(t, fmt.Sprintf("churn/seed%d", seed), seed, func(env *Env, trace *[]string) {
				fast := env.NewLink("fast", 5e5)
				slow := env.NewLink("slow", 5e4)
				res := env.NewResource("res", 2)
				for w := 0; w < 6; w++ {
					w := w
					env.Go(fmt.Sprintf("c%d", w), func(p *Proc) {
						rng := env.Rand()
						for i := 0; i < 40; i++ {
							p.Sleep(time.Duration(rng.Intn(5000)) * time.Microsecond)
							link := fast
							if rng.Intn(2) == 0 {
								link = slow
							}
							bytes := float64(1 + rng.Intn(20000))
							cap := float64(0)
							if rng.Intn(3) == 0 {
								cap = 1e4 + float64(rng.Intn(100000))
							}
							if rng.Intn(4) == 0 {
								d := time.Duration(rng.Intn(60)) * time.Millisecond
								ok := link.TransferTimeout(p, bytes, cap, d)
								logf(trace, "c%d i%d timeout ok=%v at %v", w, i, ok, p.Now())
							} else {
								link.Transfer(p, bytes, cap)
								logf(trace, "c%d i%d done at %v", w, i, p.Now())
							}
							if rng.Intn(5) == 0 {
								if res.AcquireTimeout(p, 3*time.Millisecond) {
									p.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
									res.Release()
								}
							}
						}
					})
				}
				env.Run(0)
				logf(trace, "fast=%.6f slow=%.6f done=%d/%d",
					fast.BytesSent(), slow.BytesSent(),
					fast.FlowsCompleted(), slow.FlowsCompleted())
			})
		})
	}
}

// The dirty list must be empty whenever Run returns — at exhaustion and at
// an until-cutoff — so no link is ever left with stale rates.
func TestFlushRunsBeforeRunReturns(t *testing.T) {
	env := NewEnv(1)
	link := env.NewLink("l", 1000)
	env.Go("x", func(p *Proc) { link.Transfer(p, 800, 0) })
	// Cut off mid-transfer: the arrival at t=0 must still have been flushed
	// (rates assigned) or the bytes accounting below would be wrong.
	env.Run(400 * time.Millisecond)
	if len(env.dirty) != 0 {
		t.Fatalf("dirty list has %d entries after cutoff Run", len(env.dirty))
	}
	if got := link.BytesSent(); got < 399 || got > 401 {
		t.Errorf("BytesSent at cutoff = %v, want ~400 (stale rates?)", got)
	}
	env.Run(0)
	if len(env.dirty) != 0 {
		t.Fatalf("dirty list has %d entries after exhaustion", len(env.dirty))
	}
	if got := link.BytesSent(); got < 799.9 || got > 800.1 {
		t.Errorf("final BytesSent = %v, want 800", got)
	}
}
