package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// expected.json pins, for the default seed, the sha256 of every workload's
// campaign report and analyze document (plus the report text, so a mismatch
// can name the first differing line). Every record is a pure function of
// (plan, job), so these bytes may only change when the simulation's
// behaviour does — and then a "speed-up" is a failure, not a win.
//
// Regenerate with -update-expected only in a change whose purpose is to
// change the benchmark or the simulated behaviour, never alongside a
// performance claim.
//
//go:embed expected.json
var expectedJSON []byte

const pinnedSeed = 7

type expectedEntry struct {
	ReportSHA  string   `json:"report_sha256"`
	AnalyzeSHA string   `json:"analyze_sha256"`
	Report     []string `json:"report"`
}

// expectedFile holds one entry per workload for each size class.
type expectedFile struct {
	Seed  int64                    `json:"seed"`
	Full  map[string]expectedEntry `json:"full"`
	Short map[string]expectedEntry `json:"short"`
}

func loadExpected() (*expectedFile, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &f, nil
}

func (f *expectedFile) class(short bool) map[string]expectedEntry {
	if short {
		return f.Short
	}
	return f.Full
}

// checkExpected compares a repetition's digests with the pinned ones. It
// returns "" when they agree or when nothing is pinned for this seed.
func checkExpected(f *expectedFile, short bool, workload string, seed int64, report, analyze digest) string {
	if seed != f.Seed {
		return ""
	}
	want, ok := f.class(short)[workload]
	if !ok {
		return fmt.Sprintf("no digest pinned for %s at seed %d (run -update-expected)", workload, seed)
	}
	if report.sum != want.ReportSHA {
		return fmt.Sprintf("report digest %s differs from pinned %s: %s",
			short12(report.sum), short12(want.ReportSHA), firstDiff(want.Report, splitLines(report.text)))
	}
	if analyze.sum != want.AnalyzeSHA {
		return fmt.Sprintf("analyze digest %s differs from pinned %s (report agrees: the change is inside Result payloads)",
			short12(analyze.sum), short12(want.AnalyzeSHA))
	}
	return ""
}

func short12(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

func splitLines(s string) []string { return strings.Split(strings.TrimRight(s, "\n"), "\n") }

// firstDiff names the first line on which two reports disagree.
func firstDiff(want, got []string) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Sprintf("first differing line %d: want %q, got %q", i+1, w, g)
		}
	}
	return "no differing line (digests of identical text?)"
}

// updateExpected rewrites dir/expected.json's size class from results.
func updateExpected(dir string, short bool, results []*workloadResult) error {
	// Start from the file on disk, not the embedded copy: the two size
	// classes are re-pinned back to back without a rebuild in between.
	path := filepath.Join(dir, "expected.json")
	f := &expectedFile{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Seed = pinnedSeed
	class := make(map[string]expectedEntry, len(results))
	for _, r := range results {
		if !r.Correct {
			return fmt.Errorf("refusing to pin %s: the run was not correct (%s)", r.Workload, strings.Join(r.Problems, "; "))
		}
		class[r.Workload] = expectedEntry{ReportSHA: r.ReportSHA, AnalyzeSHA: r.AnalyzeSHA, Report: r.Report}
	}
	if class[wlFleetFile].ReportSHA != class[wlFleetHTTP].ReportSHA || class[wlFleetFile].AnalyzeSHA != class[wlFleetHTTP].AnalyzeSHA {
		return fmt.Errorf("fleet-file and fleet-http disagree: %s", firstDiff(class[wlFleetFile].Report, class[wlFleetHTTP].Report))
	}
	if short {
		f.Short = class
	} else {
		f.Full = class
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
