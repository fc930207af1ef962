package mfc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reach switches on TestEveryFuncIsReached, which builds every binary of
// the repository; `make reach` passes it, tier-1 does not.
var reach = flag.Bool("reach", false, "run TestEveryFuncIsReached (builds every binary)")

// unreachedAllowed is the one list of functions declared in non-test code
// that no binary reaches. Each group says why its members stay; an entry is
// a function key as funcKey spells it, or a whole package's import path.
var unreachedAllowed = []struct {
	reason string
	keys   []string
}{
	{"test-support package: the fake clock tests of waiting code advance", []string{
		"mfc/internal/clock/clocktest",
	}},
	{"sealed interface: core.Event's marker methods are never called, by design", []string{
		"mfc/internal/core.StageStarted.event",
		"mfc/internal/core.ScenarioApplied.event",
		"mfc/internal/core.FaultInjected.event",
		"mfc/internal/core.EpochCompleted.event",
		"mfc/internal/core.MeasurersReserved.event",
		"mfc/internal/core.CheckPhaseEntered.event",
		"mfc/internal/core.ExperimentFinished.event",
	}},
	{"model counters the per-job ledger (ROADMAP item 3) will read; tests read them until it lands", []string{
		"mfc/internal/websim.Server.TimedOut",
		"mfc/internal/websim.Server.RateLimited",
		"mfc/internal/websim.Server.JunkServed",
		"mfc/internal/websim.Server.EdgeHits",
		"mfc/internal/websim.Server.PathLoss",
		"mfc/internal/netsim.Link.Utilization",
		"mfc/internal/netsim.Link.Active",
		"mfc/internal/netsim.Link.MaxActive",
		"mfc/internal/netsim.Link.FlowsCompleted",
		"mfc/internal/netsim.Link.CapacityFactor",
		"mfc/internal/netsim.Link.Down",
		"mfc/internal/netsim.Resource.Utilization",
		"mfc/internal/netsim.Resource.InUse",
		"mfc/internal/netsim.Resource.MaxQueueLen",
		"mfc/internal/netsim.Resource.Acquired",
	}},
}

// benchmarkOnly is the list of functions only the benchmark binary reaches.
// It can only shrink: ROADMAP item 4 step 4 has the benchmark call what the
// commands call, which empties it.
var benchmarkOnly = []string{
	"mfc/internal/campaign.Plan.ShardOf",
	"mfc/internal/campaign.Report",
	"mfc/internal/campaign.Run",
	"mfc/internal/campaign.ShardScanner.Scan",
	"mfc/internal/campaign.Store.Completed",
	"mfc/internal/campaign.WriteManifest",
	"mfc/internal/campaign/dist.Merge",
	"mfc/internal/campaign/dist/lease.Acquire",
	"mfc/internal/content.Site.BasePage",
	"mfc/internal/netsim.Env.GoAfter",
	"mfc/internal/netsim.Link.Transfer",
	"mfc/internal/netsim.Resource.Acquire",
	"mfc/internal/netsim.Resource.BeginAcquire",
	"mfc/internal/websim.Server.Serve",
}

// TestEveryFuncIsReached enforces DESIGN.md's layering rule: non-test code
// is code a binary reaches. It builds every main package and the benchmark
// module without inlining, collects the text symbols of each binary, and
// fails on every function declared in a non-test file that no symbol table
// holds and unreachedAllowed does not name, and on every allowlist entry
// that names a reached or undeclared function. It holds benchmarkOnly to
// the same two checks against the functions only the benchmark reaches.
func TestEveryFuncIsReached(t *testing.T) {
	if !*reach {
		t.Skip("builds every binary; run with -reach (make reach)")
	}
	declared := declaredFuncs(t)
	bin := t.TempDir()

	mains := strings.Fields(goCmd(t, "", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	byName := map[string]string{} // binary file name -> import path of its main package
	for _, p := range mains {
		byName[filepath.Base(p)] = p
	}
	goCmd(t, "", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	goCmd(t, "benchmark", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "benchmark"), ".")
	byName["benchmark"] = "mfc/benchmark"

	reachedBy := map[string]map[string]bool{} // func key -> binaries holding it
	for name, pkg := range byName {
		for _, sym := range textSymbols(t, filepath.Join(bin, name)) {
			key, ok := funcKey(sym, pkg)
			if !ok {
				continue
			}
			if reachedBy[key] == nil {
				reachedBy[key] = map[string]bool{}
			}
			reachedBy[key][name] = true
		}
	}

	allowed := map[string]bool{}
	for _, g := range unreachedAllowed {
		for _, k := range g.keys {
			allowed[k] = true
		}
	}
	covering := func(key string) string {
		if allowed[key] {
			return key
		}
		if pkg := keyPackage(key); allowed[pkg] {
			return pkg
		}
		return ""
	}

	used := map[string]bool{}
	benchListed := map[string]bool{}
	for _, k := range benchmarkOnly {
		benchListed[k] = true
	}
	var unreached, benchUnlisted []string
	for key, pos := range declared {
		by := reachedBy[key]
		if len(by) == 1 && by["benchmark"] {
			if benchListed[key] {
				used[key] = true
			} else {
				benchUnlisted = append(benchUnlisted, pos.String()+": "+key)
			}
		}
		if len(by) > 0 {
			continue
		}
		if entry := covering(key); entry != "" {
			used[entry] = true
			continue
		}
		unreached = append(unreached, pos.String()+": "+key)
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("reached by no binary: %s (delete it, or add it to unreachedAllowed with a reason)", u)
	}
	for _, g := range unreachedAllowed {
		for _, k := range g.keys {
			if !used[k] {
				t.Errorf("stale unreachedAllowed entry %s: reached by a binary or no longer declared", k)
			}
		}
	}
	sort.Strings(benchUnlisted)
	for _, u := range benchUnlisted {
		t.Errorf("reached only by the benchmark binary: %s (make another binary reach it; benchmarkOnly may only shrink)", u)
	}
	for _, k := range benchmarkOnly {
		if !used[k] {
			t.Errorf("stale benchmarkOnly entry %s: reached by another binary, by none, or no longer declared", k)
		}
	}
}

// declaredFuncs maps the key of every func and method declared in the
// module's non-test files (init functions aside) to its position.
func declaredFuncs(t *testing.T) map[string]token.Position {
	t.Helper()
	out := goCmd(t, "", "list", "-json=ImportPath,Dir,GoFiles", "./...")
	decl := map[string]token.Position{}
	fset := token.NewFileSet()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for dec := json.NewDecoder(strings.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir string
			GoFiles         []string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				key := p.ImportPath + "."
				if fn.Recv != nil {
					key += recvName(fn.Recv.List[0].Type) + "."
				}
				pos := fset.Position(fn.Pos())
				if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
					pos.Filename = rel
				}
				decl[key+fn.Name.Name] = pos
			}
		}
	}
	return decl
}

// recvName is a receiver's type name without pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// textSymbols lists the names of a binary's text symbols. A name is the
// rest of the line after the type column: generic shapes hold spaces.
func textSymbols(t *testing.T, path string) []string {
	t.Helper()
	var syms []string
	sc := bufio.NewScanner(strings.NewReader(goCmd(t, "", "tool", "nm", path)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "  4a1b20 T name": an 8-wide address column, the type, the name.
		addr, rest, ok := strings.Cut(strings.TrimLeft(sc.Text(), " "), " ")
		if !ok || addr == "" {
			continue
		}
		typ, name, ok := strings.Cut(rest, " ")
		if ok && (typ == "T" || typ == "t") {
			syms = append(syms, name)
		}
	}
	return syms
}

// closureElem matches the compiler's names for the functions inside a
// declared one: closures, go and defer wrappers, and their nested numbers.
var closureElem = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)

// funcKey maps a text symbol to the key of the function that declares its
// code: "importpath.Func" or "importpath.Recv.Method". Generic shapes,
// pointer receivers, closures, method values (-fm) and range-over-func
// bodies (-rangeN) fold into their declaring function; a "main." symbol
// belongs to mainPkg. It reports false for symbols outside the module.
func funcKey(sym, mainPkg string) (string, bool) {
	sym = stripBrackets(sym)
	var pkg, rest string
	switch {
	case strings.HasPrefix(sym, "main."):
		pkg, rest = mainPkg, sym[len("main."):]
	case strings.HasPrefix(sym, "mfc.") || strings.HasPrefix(sym, "mfc/"):
		pkg = keyPackage(sym)
		if pkg == sym {
			return "", false
		}
		rest = sym[len(pkg)+1:]
	default:
		return "", false
	}
	rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
	var elems []string
	for _, e := range strings.Split(rest, ".") {
		if i := strings.IndexByte(e, '-'); i >= 0 {
			e = e[:i] // Method-fm, Func-range1
		}
		if len(elems) > 0 && closureElem.MatchString(e) {
			break
		}
		elems = append(elems, e)
	}
	if len(elems) == 0 || elems[0] == "" {
		return "", false
	}
	return pkg + "." + strings.Join(elems, "."), true
}

// stripBrackets drops every bracketed span, nested ones included: the type
// arguments and generic shapes of an instantiated function or receiver.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// keyPackage is the import path part of a function key or symbol.
func keyPackage(key string) string {
	slash := strings.LastIndex(key, "/")
	if dot := strings.Index(key[slash+1:], "."); dot >= 0 {
		return key[:slash+1+dot]
	}
	return key
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out)
}

func TestFuncKeyNormalisesSymbols(t *testing.T) {
	const shape = `[go.shape.struct { Index int; Samples []mfc/internal/core.Sample; M map[string]time.Duration; Tag string "json:\"tag,omitempty\"" }]`
	for _, tc := range []struct{ sym, mainPkg, want string }{
		{"mfc/internal/netsim.(*Env).Run", "", "mfc/internal/netsim.Env.Run"},
		{"mfc/internal/netsim.Link.Transfer", "", "mfc/internal/netsim.Link.Transfer"},
		{"mfc.Run", "", "mfc.Run"},
		{"mfc.(*SimTarget).Profile", "", "mfc.SimTarget.Profile"},
		{"mfc/internal/campaign.fields" + shape, "", "mfc/internal/campaign.fields"},
		{"mfc/internal/campaign.fields" + shape + ".func1", "", "mfc/internal/campaign.fields"},
		{"mfc/internal/campaign/serve.post[go.shape.struct { Name string; Sub []struct { X [4]int } }]", "", "mfc/internal/campaign/serve.post"},
		{"mfc/internal/stats.(*Sketch[go.shape.int]).Add", "", "mfc/internal/stats.Sketch.Add"},
		{"mfc/internal/campaign.WorkDir.func1", "", "mfc/internal/campaign.WorkDir"},
		{"mfc/internal/campaign.init.func21.1", "", "mfc/internal/campaign.init"},
		{"mfc/internal/campaign.(*Fleet).Ingest.deferwrap1", "", "mfc/internal/campaign.Fleet.Ingest"},
		{"mfc/internal/campaign.NewSpanSpiller.func1.deferwrap1", "", "mfc/internal/campaign.NewSpanSpiller"},
		{"mfc/internal/runner.ForEach.gowrap1", "", "mfc/internal/runner.ForEach"},
		{"mfc/internal/campaign.(*Tracker).OnClaim-fm", "", "mfc/internal/campaign.Tracker.OnClaim"},
		{"mfc/internal/analyze.Live.scan-range1", "", "mfc/internal/analyze.Live.scan"},
		{"main.main", "mfc/cmd/mfc-campaign", "mfc/cmd/mfc-campaign.main"},
		{"main.(*liveMonitor).onEvent-fm", "mfc/cmd/mfc-campaign", "mfc/cmd/mfc-campaign.liveMonitor.onEvent"},
		{"main.main.gowrap2", "mfc/examples/ddos", "mfc/examples/ddos.main"},
	} {
		got, ok := funcKey(tc.sym, tc.mainPkg)
		if !ok || got != tc.want {
			t.Errorf("funcKey(%q) = %q, %v; want %q", tc.sym, got, ok, tc.want)
		}
	}
	for _, sym := range []string{"runtime.main", "type:.eq.mfc/internal/core.Result", "mfcx.F", "encoding/json.Marshal"} {
		if got, ok := funcKey(sym, "mfc/cmd/mfc"); ok {
			t.Errorf("funcKey(%q) = %q, want no key", sym, got)
		}
	}
}
