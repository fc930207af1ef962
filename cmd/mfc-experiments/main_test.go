package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mfc/internal/experiments"
)

// TestHelperMain is not a test: it is mfc-experiments itself, entered by
// re-executing the test binary with the command line after "--", so flag
// parsing and exit codes are the real main's.
func TestHelperMain(t *testing.T) {
	args := flag.Args()
	if len(args) == 0 {
		t.Skip("helper process entry point; spawned by mfcExperiments")
	}
	os.Args = append([]string{"mfc-experiments"}, args...)
	main()
	os.Exit(0)
}

// mfcExperiments runs one mfc-experiments invocation to completion.
func mfcExperiments(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], append([]string{"-test.run", "^TestHelperMain$", "--"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// An id the catalog does not hold fails the invocation before any
// experiment runs, naming the known ids.
func TestUnknownIDFails(t *testing.T) {
	for _, run := range []string{"f77", "t1,f77", ""} {
		stdout, stderr, err := mfcExperiments("-run", run)
		if err == nil {
			t.Errorf("-run %q exited 0", run)
		}
		if stdout != "" {
			t.Errorf("-run %q ran experiments before failing:\n%s", run, stdout)
		}
		if !strings.Contains(stderr, "unknown experiment") || !strings.Contains(stderr, "f7, f8, f9") {
			t.Errorf("-run %q: stderr does not list the known ids:\n%s", run, stderr)
		}
	}
}

// wallClock is the one non-deterministic part of the output: each
// experiment header's elapsed time.
var wallClock = regexp.MustCompile(`\(\d+\.\ds\)`)

func TestSameSeedSameBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("population study is slow")
	}
	// Each invocation also writes its virtual-time trace; those must match
	// byte for byte too.
	run := func(trace string) (string, []byte) {
		stdout, stderr, err := mfcExperiments("-run", "f7,t5", "-seed", "1", "-trace", trace)
		if err != nil {
			t.Fatalf("%v\n%s", err, stderr)
		}
		doc, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		return wallClock.ReplaceAllString(stdout, ""), doc
	}
	dir := t.TempDir()
	first, firstTrace := run(filepath.Join(dir, "first.json"))
	second, secondTrace := run(filepath.Join(dir, "second.json"))
	if !strings.Contains(first, "==== f7") || !strings.Contains(first, "==== t5") {
		t.Fatalf("output lacks the requested experiments:\n%s", first)
	}
	if first != second {
		t.Errorf("two invocations at one seed differ:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if !bytes.Equal(firstTrace, secondTrace) {
		t.Errorf("two invocations at one seed wrote different traces (%d and %d bytes)", len(firstTrace), len(secondTrace))
	}
}

// An experiment that fixes its own seeds says so instead of silently
// ignoring -seed: -list marks it, and running it under an explicit -seed
// prints one note on stderr and the same table on stdout.
func TestFixedSeedExperimentsSaySo(t *testing.T) {
	list, stderr, err := mfcExperiments("-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		id := strings.Fields(line)[0]
		i := slices.IndexFunc(experiments.Catalog, func(e experiments.Experiment) bool { return e.ID == id })
		if i < 0 {
			t.Fatalf("-list prints %q, which is not in the catalog", id)
		}
		if marked, fixed := strings.HasSuffix(line, "(fixed seeds)"), experiments.Catalog[i].Seed == 0; marked != fixed {
			t.Errorf("-list line %q: marked fixed = %v, catalog Seed == 0 is %v", line, marked, fixed)
		}
	}

	plain, stderr, err := mfcExperiments("-run", "t1,f3")
	if err != nil || strings.Contains(stderr, "note:") {
		t.Fatalf("without -seed: %v, stderr %q", err, stderr)
	}
	seeded, stderr, err := mfcExperiments("-run", "t1,f3", "-seed", "5")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if strings.Count(stderr, "note:") != 1 || !strings.Contains(stderr, "-seed does not apply to t1:") {
		t.Errorf("-run t1,f3 -seed 5: want one note naming t1 only, got stderr %q", stderr)
	}
	t1 := func(out string) string {
		out = wallClock.ReplaceAllString(out, "")
		return out[:strings.Index(out, "==== f3")]
	}
	if t1(plain) != t1(seeded) {
		t.Errorf("t1 moved with -seed:\n--- default\n%s\n--- -seed 5\n%s", t1(plain), t1(seeded))
	}
	if wallClock.ReplaceAllString(plain, "") == wallClock.ReplaceAllString(seeded, "") {
		t.Error("f3 did not move with -seed")
	}
}
