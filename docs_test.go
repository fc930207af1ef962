package mfc

import (
	"go/ast"
	"go/parser"
	"go/token"
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
// _test.go file (the benchmark module included), every .go or .golden
// file named must exist, as a path from the repository root or its tail,
// every `make X` must name a Makefile target, and every pkg.Ident (an
// exported name) must be declared in pkg's non-test files, where pkg is
// mfc or the name of a package directory under internal/ (other
// qualifiers are skipped).
func TestDocsNameRealTestsAndFiles(t *testing.T) {
	declaredFn := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	declared, files := map[string]bool{}, map[string]bool{}
	pkgDecls := map[string]map[string]bool{} // package name -> its top-level names
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
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if pkg := filepath.Base(dir); strings.HasSuffix(path, ".go") && (dir == "." || strings.HasPrefix(dir, "internal/")) {
			if dir == "." {
				pkg = "mfc"
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if pkgDecls[pkg] == nil {
				pkgDecls[pkg] = map[string]bool{}
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						pkgDecls[pkg][d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							pkgDecls[pkg][sp.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								pkgDecls[pkg][n.Name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	codeSpan := regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	fileName := regexp.MustCompile(`[\w./-]*\w\.(?:go|golden)\b`)
	makeTarget := regexp.MustCompile(`\bmake((?:[ \t]+[a-z][\w-]*)+)`)
	qualified := regexp.MustCompile(`(?:^|[^\w./-])([a-z]\w*)\.([A-Z]\w*)`)
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
			for _, m := range makeTarget.FindAllStringSubmatch(span, -1) {
				for _, target := range strings.Fields(m[1]) {
					if !targets[target] {
						t.Errorf("%s names `make %s`, which is not a Makefile target", doc, target)
					}
				}
			}
			for _, m := range qualified.FindAllStringSubmatch(span, -1) {
				if decls := pkgDecls[m[1]]; decls != nil && !decls[m[2]] {
					t.Errorf("%s names %s.%s, which package %s does not declare", doc, m[1], m[2], m[1])
				}
			}
		}
	}
}
