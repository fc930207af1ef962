package mfc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reach switches on TestEveryFuncIsReached, which builds every binary of
// the repository, and TestEveryFieldIsWritten, which type-checks both
// modules; `make reach` passes it, tier-1 does not.
var reach = flag.Bool("reach", false, "run TestEveryFuncIsReached and TestEveryFieldIsWritten")

// unreachedAllowed is the one list of functions declared in non-test code
// that no binary reaches, and of fields no non-test code writes. Each group
// says why its members stay. A function entry is a key as funcKey spells
// it, or a whole package's import path; a field entry is
// "importpath.Type.Field", in a group whose reason is a pin or an oracle
// (fieldReason).
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
	{"model counters the per-job ledger (ROADMAP item 4) will read; tests read them until it lands", []string{
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
	{"pin: request_path.golden hashes every sample this keeps; it leaves in ROADMAP item 11's re-pin", []string{
		"mfc/internal/core.Config.KeepSamples",
	}},
	{"pin: the qtnp-lossy-control case of request_path.golden", []string{
		"mfc.SimTarget.PollLoss",
	}},
	{"pin: the wide case of sites.golden", []string{
		"mfc/internal/content.GenConfig.ImagesPerPage",
	}},
	{"oracle: RequireProfileMatchesCrawl cuts the crawl at each depth", []string{
		"mfc/internal/content.CrawlConfig.MaxDepth",
	}},
	{"oracle: FuzzGenerate varies the sizes against oracleGenerate", []string{
		"mfc/internal/content.GenConfig.MeanPageSize",
		"mfc/internal/content.GenConfig.MeanQuerySize",
	}},
}

// benchmarkOnly is the list of functions only the benchmark binary reaches.
// It can only shrink: ROADMAP item 5 step 4, in item 8 step 1's benchmark
// change, has the benchmark call what the commands call, which empties it.
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
		if fieldReason(g.reason) {
			continue
		}
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
		if fieldReason(g.reason) {
			continue
		}
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

// fieldReason reports whether an unreachedAllowed group holds fields. A
// field stays unwritten for one of two reasons only: a named golden pins
// it, or a named test varies it to compare a fast path with its oracle.
func fieldReason(reason string) bool {
	return strings.HasPrefix(reason, "pin: ") || strings.HasPrefix(reason, "oracle: ")
}

// TestEveryFieldIsWritten enforces the field half of DESIGN.md's layering
// rule: a setting has a caller. It type-checks the module and the
// benchmark module from source and fails, naming file:line, on every
// exported field of an exported struct type declared outside cmd/ that no
// non-test file writes (writtenFields says what a write is) and no pin or
// oracle group of unreachedAllowed names, and on every entry of such a
// group that names a written or undeclared field.
func TestEveryFieldIsWritten(t *testing.T) {
	if !*reach {
		t.Skip("type-checks both modules from source; run with -reach (make reach)")
	}
	l := &sourceLoader{
		fset:   token.NewFileSet(),
		listed: map[string]listedPkg{},
		pkgs:   map[string]*checkedPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	for _, dir := range []string{"", "benchmark"} {
		out := goCmd(t, dir, "list", "-json=ImportPath,Dir,GoFiles", "./...")
		for dec := json.NewDecoder(strings.NewReader(out)); dec.More(); {
			var p listedPkg
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			p.declares = dir == "" && !strings.HasPrefix(p.ImportPath, "mfc/cmd/")
			l.listed[p.ImportPath] = p
		}
	}
	tracked := map[*types.Var]fieldDecl{}
	for path, p := range l.listed {
		c, err := l.check(path)
		if err != nil {
			t.Fatal(err)
		}
		if p.declares {
			declaredFields(c.pkg, tracked)
		}
	}
	written := map[*types.Var]bool{}
	for _, c := range l.pkgs {
		writtenFields(c.info, c.files, tracked, written)
	}

	byKey := map[string]*types.Var{}
	for v, d := range tracked {
		byKey[d.key] = v
	}
	allowed := map[string]bool{}
	for _, g := range unreachedAllowed {
		if !fieldReason(g.reason) {
			continue
		}
		for _, k := range g.keys {
			allowed[k] = true
			if v, ok := byKey[k]; !ok || written[v] {
				t.Errorf("stale unreachedAllowed entry %s: written by non-test code or no longer declared", k)
			}
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var unwritten []string
	for v, d := range tracked {
		if written[v] || allowed[d.key] {
			continue
		}
		pos := l.fset.Position(v.Pos())
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		unwritten = append(unwritten, pos.String()+": "+d.key)
	}
	sort.Strings(unwritten)
	for _, u := range unwritten {
		t.Errorf("written by no non-test code: %s (delete it, or add it to unreachedAllowed under a pin or oracle reason)", u)
	}
}

// listedPkg is a package as `go list` prints it; declares says whether the
// field check tracks the fields it declares.
type listedPkg struct {
	ImportPath, Dir string
	GoFiles         []string
	declares        bool
}

// checkedPkg is a type-checked package with its syntax and type facts.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// sourceLoader type-checks each listed package once, on first import, so
// every package that selects a field sees the same *types.Var. It imports
// the standard library through the source importer.
type sourceLoader struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	listed map[string]listedPkg
	pkgs   map[string]*checkedPkg
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *sourceLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.listed[path]; !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	c, err := l.check(path)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

// check parses and type-checks a listed package's non-test files.
func (l *sourceLoader) check(path string) (*checkedPkg, error) {
	if c, ok := l.pkgs[path]; ok {
		return c, nil
	}
	p := l.listed[path]
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	c, err := checkFiles(path, l.fset, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = c
	return c, nil
}

// checkFiles type-checks one package's files, recording what
// writtenFields reads.
func checkFiles(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*checkedPkg, error) {
	c := &checkedPkg{files: files, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, c.info)
	c.pkg = pkg
	return c, err
}

// fieldDecl is a tracked field's key, "importpath.Type.Field", and the
// struct type that declares it.
type fieldDecl struct {
	key   string
	owner *types.TypeName
}

// declaredFields adds every exported field of an exported struct type
// declared at pkg's top level to into.
func declaredFields(pkg *types.Package, into map[*types.Var]fieldDecl) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				into[f] = fieldDecl{key: pkg.Path() + "." + name + "." + f.Name(), owner: tn}
			}
		}
	}
}

// writtenFields marks in written every tracked field that files write. A
// write is a composite literal that sets the field, keyed or positional;
// an assignment or increment whose left side goes through it (a.B.C = x
// writes B and C); &x.F; and a pointer-receiver method called on, or taken
// from, a field x.F held by value. A write inside a value-receiver method
// of the field's own struct type, or of a struct one of that type's
// fields holds by value or by pointer, fills a default into a copy and
// does not count.
func writtenFields(info *types.Info, files []*ast.File, tracked map[*types.Var]fieldDecl, written map[*types.Var]bool) {
	for _, f := range files {
		for _, decl := range f.Decls {
			exempt := valueReceiverTypes(info, decl)
			mark := func(v *types.Var) {
				v = v.Origin()
				if d, ok := tracked[v]; ok && !exempt[d.owner] {
					written[v] = true
				}
			}
			// markPath marks the fields a selection path goes through:
			// the first n steps of sel, embedded fields included.
			markPath := func(sel *types.Selection, n int) {
				t := sel.Recv()
				for _, i := range sel.Index()[:n] {
					st, ok := structOf(t)
					if !ok {
						return
					}
					mark(st.Field(i))
					t = st.Field(i).Type()
				}
			}
			// markLHS marks every field the written operand e goes through.
			markLHS := func(e ast.Expr) {
				for e != nil {
					switch x := e.(type) {
					case *ast.ParenExpr:
						e = x.X
					case *ast.StarExpr:
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.SelectorExpr:
						sel := info.Selections[x]
						if sel == nil || sel.Kind() != types.FieldVal {
							return
						}
						markPath(sel, len(sel.Index()))
						e = x.X
					default:
						return
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := structOf(info.TypeOf(n))
					if !ok {
						break
					}
					for i, e := range n.Elts {
						kv, ok := e.(*ast.KeyValueExpr)
						if !ok {
							mark(st.Field(i))
							continue
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok {
								mark(v)
							}
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							markLHS(lhs)
						}
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						markLHS(n.Key)
						markLHS(n.Value)
					}
				case *ast.IncDecStmt:
					markLHS(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markLHS(n.X)
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil || sel.Kind() != types.MethodVal {
						break
					}
					_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrOperand := info.TypeOf(n.X).Underlying().(*types.Pointer)
					if ptrRecv && !ptrOperand {
						markPath(sel, len(sel.Index())-1)
						markLHS(n.X)
					}
				}
				return true
			})
		}
	}
}

// valueReceiverTypes is, for a method with a value receiver, the set of
// struct types whose fields it may fill in its copy: the receiver's own
// type and the named types its fields hold by value or by pointer.
func valueReceiverTypes(info *types.Info, decl ast.Decl) map[*types.TypeName]bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Recv == nil {
		return nil
	}
	recv, ok := info.TypeOf(fn.Recv.List[0].Type).(*types.Named)
	if !ok {
		return nil // a pointer receiver
	}
	exempt := map[*types.TypeName]bool{recv.Origin().Obj(): true}
	if st, ok := recv.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			t := st.Field(i).Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				exempt[n.Origin().Obj()] = true
			}
		}
	}
	return exempt
}

// structOf is the struct type t or *t has underneath, if any.
func structOf(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
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

// TestWrittenFieldsRules holds writtenFields to each rule on a fixture
// package: every field the fixture leaves unwritten, and only those, is
// reported.
func TestWrittenFieldsRules(t *testing.T) {
	const src = `package fix

type Counter struct{ n int }

func (c *Counter) Add(d int) { c.n += d }
func (c Counter) Get() int   { return c.n }

type Pair struct{ X, Y int }

type Inner struct{ C, D int }

type Sub struct{ E, Unset int }

type Config struct {
	Keyed, KeyedUnset int
	B                 Inner
	Addr, Inc         int
	Count, Read       Counter
	Ptr               *Counter
	Default           int
	Sub               Sub
	Set               int
}

type hidden struct{ Z int }

func use(c *Config) *int {
	_ = Config{Keyed: 1}
	_ = Pair{1, 2}
	c.B.C = 3
	c.Inc++
	c.Count.Add(1)
	c.Ptr.Add(1)
	_ = c.Read.Get()
	return &c.Addr
}

func (c Config) withDefaults() Config {
	if c.Default == 0 {
		c.Default = 5
	}
	c.Sub.E = 1
	return c
}

func (c *Config) set() { c.Set = 1 }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := checkFiles("fix", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracked := map[*types.Var]fieldDecl{}
	declaredFields(c.pkg, tracked)
	written := map[*types.Var]bool{}
	writtenFields(c.info, c.files, tracked, written)
	var unwritten []string
	for v, d := range tracked {
		if !written[v] {
			unwritten = append(unwritten, d.key)
		}
	}
	sort.Strings(unwritten)
	want := []string{
		"fix.Config.Default",    // only its own value-receiver method sets it
		"fix.Config.KeyedUnset", // the keyed literal leaves it out
		"fix.Config.Ptr",        // a pointer method through a pointer field
		"fix.Config.Read",       // a value method
		"fix.Config.Sub",        // only withDefaults goes through it
		"fix.Inner.D",
		"fix.Sub.E", // Config holds Sub by value: withDefaults' copy
		"fix.Sub.Unset",
	}
	if strings.Join(unwritten, " ") != strings.Join(want, " ") {
		t.Errorf("unwritten fields:\n got %v\nwant %v", unwritten, want)
	}
}
