package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
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
	run := func() string {
		stdout, stderr, err := mfcExperiments("-run", "f7,t5", "-seed", "1")
		if err != nil {
			t.Fatalf("%v\n%s", err, stderr)
		}
		return wallClock.ReplaceAllString(stdout, "")
	}
	first, second := run(), run()
	if !strings.Contains(first, "==== f7") || !strings.Contains(first, "==== t5") {
		t.Fatalf("output lacks the requested experiments:\n%s", first)
	}
	if first != second {
		t.Errorf("two invocations at one seed differ:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// EXPERIMENTS.md's id tables and the catalog name the same experiments.
func TestCatalogMatchesExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	inIDTable := false
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		switch {
		case len(cells) < 3 || cells[0] != "":
			inIDTable = false
		case strings.TrimSpace(cells[1]) == "id":
			inIDTable = true
		case inIDTable && !strings.HasPrefix(cells[1], "-"):
			documented = append(documented, strings.TrimSpace(cells[1]))
		}
	}

	stdout, stderr, err := mfcExperiments("-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}

	for _, id := range listed {
		if !slices.Contains(documented, id) {
			t.Errorf("-list prints %q, which no EXPERIMENTS.md table row records", id)
		}
	}
	for _, id := range documented {
		if !slices.Contains(listed, id) {
			t.Errorf("EXPERIMENTS.md records %q, which is not in the catalog", id)
		}
	}
}
