package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mfc"
)

// Every preset row builds a named server and a non-empty site, and -list
// prints one line per row, name first.
func TestPresetsBuildAndList(t *testing.T) {
	var out strings.Builder
	listPresets(&out)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(presets) {
		t.Fatalf("-list printed %d lines for %d presets:\n%s", len(lines), len(presets), out.String())
	}
	seen := map[string]bool{}
	for i, p := range presets {
		if seen[p.name] {
			t.Errorf("preset %q listed twice", p.name)
		}
		seen[p.name] = true
		if !strings.HasPrefix(lines[i], p.name+" ") || !strings.HasSuffix(lines[i], " "+p.about) {
			t.Errorf("-list line %d = %q, want %q then %q", i, lines[i], p.name, p.about)
		}
		srv, site := p.build(1)
		if srv.Name == "" {
			t.Errorf("preset %q builds an unnamed server config", p.name)
		}
		if site == nil || site.Len() == 0 {
			t.Errorf("preset %q builds an empty site", p.name)
		}
	}
}

// TestHelperMain is not a test: it is mfc-sim itself, entered by
// re-executing the test binary with the command line after "--", so flag
// parsing and exit codes are the real main's.
func TestHelperMain(t *testing.T) {
	args := flag.Args()
	if len(args) == 0 {
		t.Skip("helper process entry point; spawned by mfcSim")
	}
	os.Args = append([]string{"mfc-sim"}, args...)
	main()
	os.Exit(0)
}

// mfcSim runs one mfc-sim invocation to completion.
func mfcSim(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], append([]string{"-test.run", "^TestHelperMain$", "--"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// A scenario that modulates background traffic is marked in
// -list-scenarios, and choosing one without -bg fails flag validation
// (exit 2, naming -bg) before anything runs.
func TestScenarioNeedsBackground(t *testing.T) {
	list, _, err := mfcSim("-list-scenarios")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(list, "\n"), "\n") {
		name := strings.Fields(line)[0]
		sc, err := mfc.ParseScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		if marked := strings.HasSuffix(line, " (needs -bg)"); marked != sc.DiurnalActive() {
			t.Errorf("-list-scenarios line %q: marked %t, scenario modulates background %t", line, marked, sc.DiurnalActive())
		}
	}
	if !strings.Contains(list, "(needs -bg)") {
		t.Fatalf("-list-scenarios marks no preset:\n%s", list)
	}

	for _, args := range [][]string{
		{"-scenario", "diurnal"},
		{"-scenario", "diurnal", "-bg", "0"},
		{"-scenario", `{"diurnal":{"period":10000000000,"low":0.5,"high":2}}`},
	} {
		stdout, stderr, err := mfcSim(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%q: err = %v, want exit status 2", args, err)
		}
		if stdout != "" || !strings.Contains(stderr, "-bg") {
			t.Errorf("%q: stdout %q, stderr %q; want nothing run and -bg named", args, stdout, stderr)
		}
	}
}
