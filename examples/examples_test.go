// Package examples_test smoke-tests the runnable examples so they cannot
// silently rot: every example must build and run to completion, with
// MFC_EXAMPLE_QUICK=1 selecting each program's tiny deterministic config.
// The examples are ordinary `package main` programs, so the test compiles
// each one and runs the binary directly — killing the binary itself on
// timeout (killing a `go run` wrapper would orphan the real process and
// leave its output pipe open forever).
package examples_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke runs real binaries; skipped under -short")
	}
	cases := []struct {
		dir     string
		timeout time.Duration
		want    string // substring the output must contain
	}{
		{"quickstart", 2 * time.Minute, "MFC result"},
		{"ddos", 2 * time.Minute, "qtp (production farm)"},
		{"staggered", 2 * time.Minute, "inter-arrival"},
		{"labvalidation", 2 * time.Minute, "tracking a linear model"},
		{"measurers", 2 * time.Minute, "measurer"},
		{"population", 3 * time.Minute, "stage"},
		// livetarget issues genuine HTTP over loopback, so it spends real
		// wall-clock time even in quick mode.
		{"livetarget", 5 * time.Minute, "instrumented target listening"},
	}
	bindir := t.TempDir()
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel() // each example is its own process on 127.0.0.1:0
			bin := filepath.Join(bindir, c.dir)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+c.dir)
			build.Dir = ".." // repo root, where go.mod lives
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("building example %s: %v\n%s", c.dir, err, out)
			}

			ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin)
			cmd.Env = append(os.Environ(), "MFC_EXAMPLE_QUICK=1")
			cmd.WaitDelay = 10 * time.Second // close pipes even if kill is slow
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("example %s did not finish within %v\noutput so far:\n%s",
					c.dir, c.timeout, out)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\noutput:\n%s", c.dir, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("example %s output lacks %q:\n%s", c.dir, c.want, out)
			}
		})
	}
}
