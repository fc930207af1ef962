package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestHelperMain is not a test: it is mfc-campaign itself, entered by
// re-executing the test binary with the command line after "--". It runs
// the real main — flag parsing, exit codes and all — and exits without
// the test framework's PASS line, so stdout is the command's alone.
func TestHelperMain(t *testing.T) {
	args := flag.Args()
	if len(args) == 0 {
		t.Skip("helper process entry point; spawned by mfcCampaign")
	}
	os.Args = append([]string{"mfc-campaign"}, args...)
	main()
	os.Exit(0)
}

// mfcCampaign runs one mfc-campaign invocation to completion and returns
// its stdout; a non-zero exit fails the test with the command's stderr.
func mfcCampaign(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run", "^TestHelperMain$", "--"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("mfc-campaign %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// The CLI's kill + resume determinism, through the real main: a plan run
// to completion and the same plan halted mid-way (`run -halt-after`) then
// resumed must report byte-identically — over a clean two-stage plan and
// over a scenario sweep halted inside the cells where fault timers are
// armed.
func TestHaltResumeReportByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name, halt string
		plan       []string
	}{
		{"clean", "15", []string{"-bands", "rank-1K-10K", "-stages", "base,query", "-sites", "40", "-seed", "7"}},
		{"chaos", "20", []string{"-bands", "rank-1K-10K", "-stages", "base",
			"-scenarios", "clean,lossy,flaky-link", "-sites", "15", "-seed", "7"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			clean, killed := t.TempDir(), t.TempDir()
			mfcCampaign(t, append([]string{"plan", "-dir", clean}, tc.plan...)...)
			if out := mfcCampaign(t, "run", "-dir", clean, "-quiet"); !strings.HasPrefix(out, "completed:") {
				t.Fatalf("uninterrupted run printed %q", out)
			}
			want := mfcCampaign(t, "report", "-dir", clean)

			mfcCampaign(t, append([]string{"plan", "-dir", killed}, tc.plan...)...)
			if out := mfcCampaign(t, "run", "-dir", killed, "-halt-after", tc.halt, "-quiet"); !strings.HasPrefix(out, "halted:") {
				t.Fatalf("run -halt-after %s printed %q", tc.halt, out)
			}
			if part := mfcCampaign(t, "report", "-dir", killed); !strings.Contains(part, "INCOMPLETE") {
				t.Fatalf("report of the halted campaign is not marked incomplete:\n%s", part)
			}
			if out := mfcCampaign(t, "resume", "-dir", killed, "-quiet"); !strings.HasPrefix(out, "completed:") {
				t.Fatalf("resume printed %q", out)
			}
			if got := mfcCampaign(t, "report", "-dir", killed); got != want {
				t.Errorf("halted + resumed report differs from the uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
			}
		})
	}
}
