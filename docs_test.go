package mfc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealTestsAndFiles keeps the docs from pointing at code that is
// gone: every test, fuzz target or benchmark named in a code span of
// DESIGN.md, EXPERIMENTS.md or the verify notes must be declared in some
// _test.go file (the benchmark module included), and every .go or .golden
// file named must exist, as a path from the repository root or its tail.
func TestDocsNameRealTestsAndFiles(t *testing.T) {
	declaredFn := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	declared, files := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip .git, build output and benchmark results; keep .claude,
			// which holds the verify notes.
			hidden := path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".claude"
			if hidden || path == filepath.Join("benchmark", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		for p := filepath.ToSlash(path); ; {
			files[p] = true
			_, tail, ok := strings.Cut(p, "/")
			if !ok {
				break
			}
			p = tail
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declaredFn.FindAllStringSubmatch(string(src), -1) {
				declared[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	codeSpan := regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	fileName := regexp.MustCompile(`[\w./-]*\w\.(?:go|golden)\b`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(string(text), -1) {
			for _, name := range testName.FindAllString(span, -1) {
				if !declared[name] {
					t.Errorf("%s names %s, which no _test.go file declares", doc, name)
				}
			}
			for _, name := range fileName.FindAllString(span, -1) {
				if !files[strings.TrimPrefix(name, "./")] {
					t.Errorf("%s names %s, which is not in the tree", doc, name)
				}
			}
		}
	}
}
