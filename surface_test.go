package privconsensus

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// surfaceAllowlist names the exported internal/ declarations that have no
// non-test caller outside bench/ and stay anyway, each with its reason. Keys
// are "pkg.Name" for package-level names and "pkg.Type.Method" for methods,
// pkg being the directory under internal/. An entry whose name is gone, or
// that has since gained a product caller, fails TestExportedSurfaceHasCallers.
var surfaceAllowlist = map[string]string{
	// Bench-only paths that the next benchmark change retires (ROADMAP item 1).
	"deploy.RunIngest":               "bench/ ingest_tree2048 sink; ROADMAP item 1 (c) moves the workload onto the real pair",
	"ingest.Uploader":                "bench/ ingest_tree2048 client; ROADMAP item 1 (b) moves serve clients onto deploy's client",
	"ingest.Uploader.Confirm":        "bench/ ingest_tree2048 client (see ingest.Uploader)",
	"ingest.Uploader.Send":           "bench/ ingest_tree2048 client (see ingest.Uploader)",
	"ingest.Run":                     "bench/ ingest_tree2048 starts its relays in-process; no cmd/ binary runs a relay yet",
	"protocol.RunS2WithPools":        "bench/ replays traced queries by hand; ROADMAP item 1 (a) reads the served spans instead",
	"paillier.PublicKey.Rerandomize": "bench/ times one rerandomization per op in its kernel layer",
	"dgk.PrivateKey.IsZero":          "bench/ times one zero test per op in its kernel layer; the comparison rounds call isZero",
	"dgk.PrivateKey.Encrypt":         "BenchmarkDGKCompare times the owner's bit encryption through it (without it, sk.Encrypt there is the public path); the comparison rounds call encryptOwn",
	"transport.Meter.Totals":         "bench/ reads replay byte totals (ROADMAP item 1 (a))",
	"transport.Dial":                 "bench/ and the deploy tests dial a server as a raw client",
	// References and test hooks that other packages' tests or benchmarks need.
	"protocol.PlainOutcome":           "plaintext Alg. 1 reference the protocol tests hold the secure runs to",
	"pate.PlainLabeler":               "non-private Alg. 1 labeler the protocol tests hold packed runs to",
	"paillier.PrivateKey.DecryptSlow": "non-CRT decryption that BenchmarkPaillierCRT measures the CRT path against",
	"protocol.RunS1":                  "bench/ replays traced queries by hand (see protocol.RunS2WithPools); RunPair runs both roles itself",
	"obs.Registry.SetEnabled":         "BenchmarkObsOverhead switches the registry off to measure its cost",
	"obs.Registry.Enabled":            "BenchmarkObsOverhead restores the registry's state after switching it",
	"obs.Registry.Snapshot":           "bench/ and the root trace tests read every series through it",
	"pate.PipelineConfig.Validate":    "the experiments tests check their pipeline configurations through it",
	"obs.Registry.CounterValue":       "tests in deploy, ingest, obs and transport read counters through it",
	"obs.QueryTrace.Span":             "the obs and transport tests look up one phase's span",
	"mathutil.FixedBaseExp.MaxBits":   "paillier and dgk tests check the tables' exponent bound",
	"mathutil.FixedBaseExp.Modulus":   "paillier and dgk tests check which modulus a table serves",
}

// stdlibInterfaces lists the standard-library interfaces whose methods a
// type declares to be used by the library (fmt, encoding/json, net/http, …)
// rather than called by name.
var stdlibInterfaces = [][]string{
	{"Error"},
	{"String"},
	{"Format"},
	{"MarshalJSON"},
	{"UnmarshalJSON"},
	{"MarshalText"},
	{"UnmarshalText"},
	{"MarshalBinary"},
	{"UnmarshalBinary"},
	{"Read"},
	{"Write"},
	{"Close"},
	{"ServeHTTP"},
	{"Unwrap"},
	{"Is"},
	{"Len", "Less", "Swap"},
	{"Len", "Less", "Swap", "Push", "Pop"},
	{"Read", "Write", "Close", "LocalAddr", "RemoteAddr", "SetDeadline", "SetReadDeadline", "SetWriteDeadline"},
	{"Accept", "Close", "Addr"},
	{"Error", "Timeout", "Temporary"},
}

type surfaceFile struct {
	dir, importPath string
	test, bench     bool
	ast             *ast.File
}

type surfaceDecl struct {
	key, importPath, name, recv string
	pos                         token.Position
}

// surfaceScan is the parsed and type-checked module: its exported internal/
// declarations, the references product code makes to them and the
// interfaces it declares.
type surfaceScan struct {
	module     string
	decls      []surfaceDecl
	refs       map[string]map[string]bool // target → declarations it is referenced from
	methods    map[string]map[string]bool // importPath.Type → its method names
	interfaces [][]string
	fuzzDirs   map[string][]string // FuzzX → directories declaring it
	gcTuning   []string            // non-test calls that tune the collector, with their positions
	bigExp     map[string][]string // declaration → positions of its (*big.Int).Exp calls, in guarded packages
	info       *types.Info
}

var (
	scanOnce sync.Once
	scanned  *surfaceScan
	scanErr  error
)

// scanModule parses and type-checks the module once per test binary; the
// result is read-only.
func scanModule(t *testing.T) *surfaceScan {
	t.Helper()
	scanOnce.Do(func() { scanned, scanErr = scanModuleOnce() })
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	return scanned
}

func scanModuleOnce() (*surfaceScan, error) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		return nil, err
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))

	fset := token.NewFileSet()
	var files []surfaceFile
	pkgNames := map[string]string{}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		ip := module
		if dir != "." {
			ip = module + "/" + dir
		}
		sf := surfaceFile{dir: dir, importPath: ip, test: strings.HasSuffix(p, "_test.go"),
			bench: dir == "bench" || strings.HasPrefix(dir, "bench/"), ast: f}
		if !sf.test {
			pkgNames[ip] = f.Name.Name
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		return nil, err
	}

	s := &surfaceScan{module: module, refs: map[string]map[string]bool{}, methods: map[string]map[string]bool{},
		interfaces: slices.Clone(stdlibInterfaces), fuzzDirs: map[string][]string{}, bigExp: map[string][]string{}}
	if s.info, err = typeCheck(fset, files); err != nil {
		return nil, err
	}
	for _, f := range files {
		if f.test {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
					s.fuzzDirs[fd.Name.Name] = append(s.fuzzDirs[fd.Name.Name], f.dir)
				}
			}
			continue
		}
		s.collectGCTuning(fset, f)
		if f.bench {
			continue
		}
		s.collectDecls(fset, f)
		s.collectInterfaces(f)
		s.collectRefs(fset, f, pkgNames)
	}
	return s, nil
}

// typeCheck type-checks the module's non-test packages outside bench/, so
// that a method reference resolves to its receiver's type. The standard
// library is checked from source.
func typeCheck(fset *token.FileSet, files []surfaceFile) (*types.Info, error) {
	build.Default.CgoEnabled = false // the pure-Go standard library
	m := &moduleImporter{fset: fset, files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{},
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}}
	for _, f := range files {
		if !f.test && !f.bench {
			m.files[f.importPath] = append(m.files[f.importPath], f.ast)
		}
	}
	for ip := range m.files {
		if _, err := m.Import(ip); err != nil {
			return nil, err
		}
	}
	return m.info, nil
}

// moduleImporter type-checks the module's packages on demand into one
// types.Info and leaves the rest to the standard library's importer.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.ImporterFrom
	info  *types.Info
}

func (m *moduleImporter) Import(ip string) (*types.Package, error) {
	if p := m.pkgs[ip]; p != nil {
		return p, nil
	}
	files, ok := m.files[ip]
	if !ok {
		return m.std.ImportFrom(ip, ".", 0)
	}
	p, err := (&types.Config{Importer: m}).Check(ip, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", ip, err)
	}
	m.pkgs[ip] = p
	return p, nil
}

// methodKey is "importPath.Type.Method" for a selection of a method declared
// on a named type, and "" for a field or an interface literal's method.
func methodKey(sel *types.Selection) string {
	if sel == nil || sel.Kind() == types.FieldVal {
		return ""
	}
	fn := sel.Obj().(*types.Func)
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name()
}

// declKey is the allowlist key of a declaration in importPath, or "" outside
// internal/.
func declKey(importPath, recv, name string) string {
	_, pkg, ok := strings.Cut(importPath, "/internal/")
	if !ok {
		return ""
	}
	if recv != "" {
		return pkg + "." + recv + "." + name
	}
	return pkg + "." + name
}

func recvName(fd *ast.FuncDecl) string {
	x := fd.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func (s *surfaceScan) collectDecls(fset *token.FileSet, f surfaceFile) {
	add := func(recv string, id *ast.Ident) {
		if key := declKey(f.importPath, recv, id.Name); key != "" && id.IsExported() {
			s.decls = append(s.decls, surfaceDecl{key: key, importPath: f.importPath,
				name: id.Name, recv: recv, pos: fset.Position(id.Pos())})
		}
	}
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("", d.Name)
				continue
			}
			r := recvName(d)
			if s.methods[f.importPath+"."+r] == nil {
				s.methods[f.importPath+"."+r] = map[string]bool{}
			}
			s.methods[f.importPath+"."+r][d.Name.Name] = true
			add(r, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					add("", sp.Name)
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						add("", n)
					}
				}
			}
		}
	}
}

// collectGCTuning records every call in f that tunes the garbage collector:
// runtime/debug's SetGCPercent and SetMemoryLimit, and setting GOGC or
// GOMEMLIMIT through os.Setenv.
func (s *surfaceScan) collectGCTuning(fset *token.FileSet, f surfaceFile) {
	imports := map[string]string{}
	for _, im := range f.ast.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		fn := imports[x.Name] + "." + sel.Sel.Name
		switch fn {
		case "runtime/debug.SetGCPercent", "runtime/debug.SetMemoryLimit":
		case "os.Setenv":
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || (lit.Value != `"GOGC"` && lit.Value != `"GOMEMLIMIT"`) {
				return true
			}
		default:
			return true
		}
		s.gcTuning = append(s.gcTuning, fn+" at "+fset.Position(call.Pos()).String())
		return true
	})
}

// collectInterfaces records the method names of every interface f declares.
func (s *surfaceScan) collectInterfaces(f surfaceFile) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			var names []string
			for _, m := range it.Methods.List {
				for _, n := range m.Names {
					names = append(names, n.Name)
				}
			}
			s.interfaces = append(s.interfaces, names)
		}
		return true
	})
}

// collectRefs records every package-level name and method that f's code
// refers to, keyed "importPath.Name" and "importPath.Type.Method" (the type
// the method is declared on), together with the declaration the reference
// sits in, so a name's own body does not count. In the packages that
// bigExpGuarded names it also records each (*big.Int).Exp call.
func (s *surfaceScan) collectRefs(fset *token.FileSet, f surfaceFile, pkgNames map[string]string) {
	_, guarded := bigExpGuarded[strings.TrimPrefix(f.dir, "internal/")]
	imports := map[string]string{}
	for _, im := range f.ast.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		name := pkgNames[p]
		if name == "" {
			name = path.Base(p)
		}
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	ref := func(target, from string) {
		if s.refs[target] == nil {
			s.refs[target] = map[string]bool{}
		}
		s.refs[target][from] = true
	}
	var walk func(n ast.Node, from string)
	walk = func(n ast.Node, from string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					ref(imports[x.Name]+"."+n.Sel.Name, from)
				} else {
					key := methodKey(s.info.Selections[n])
					if key != "" {
						ref(key, from)
					}
					if guarded && key == "math/big.Int.Exp" {
						s.bigExp[from] = append(s.bigExp[from], fset.Position(n.Pos()).String())
					}
					walk(n.X, from)
				}
				return false
			case *ast.Field:
				// A field's or parameter's name is not a reference.
				walk(n.Type, from)
				return false
			case *ast.Ident:
				ref(f.importPath+"."+n.Name, from)
			}
			return true
		})
	}
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = recvName(d)
			}
			// Outside internal/ a function is named by its full import
			// path, so every function in the module has its own key.
			from := declKey(f.importPath, recv, d.Name.Name)
			if from == "" {
				from = strings.TrimSuffix(f.importPath+"."+recv, ".") + "." + d.Name.Name
			}
			// The receiver list names the method's own type: not a use.
			walk(d.Type, from)
			if d.Body != nil {
				walk(d.Body, from)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				from := ""
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					from = declKey(f.importPath, "", sp.Name.Name)
					walk(sp.Type, from)
				case *ast.ValueSpec:
					if len(sp.Names) == 1 {
						from = declKey(f.importPath, "", sp.Names[0].Name)
					}
					if sp.Type != nil {
						walk(sp.Type, from)
					}
					for _, v := range sp.Values {
						walk(v, from)
					}
				}
			}
		}
	}
}

func (s *surfaceScan) used(d surfaceDecl) bool {
	target := d.importPath + "." + d.name
	if d.recv != "" {
		target = d.importPath + "." + d.recv + "." + d.name
	}
	for from := range s.refs[target] {
		if from != d.key {
			return true
		}
	}
	return false
}

// implementsInterface reports whether d is a method that, with its type's
// other methods, implements an in-module or standard-library interface.
func (s *surfaceScan) implementsInterface(d surfaceDecl) bool {
	if d.recv == "" {
		return false
	}
	have := s.methods[d.importPath+"."+d.recv]
	for _, iface := range s.interfaces {
		in, all := false, len(iface) > 0
		for _, m := range iface {
			in = in || m == d.name
			all = all && have[m]
		}
		if in && all {
			return true
		}
	}
	return false
}

// TestExportedSurfaceHasCallers holds every exported name under internal/ to
// a product caller: a function, method, type, var or const that only tests or
// bench/ use is either deleted, moved into its package's _test.go, or listed
// on surfaceAllowlist with the reason it stays. Package-level names resolve
// by import path and methods by the type they are declared on, so a method
// of one type is not kept alive by a call to a same-named method of another;
// a method that helps its type implement an interface is exempt.
func TestExportedSurfaceHasCallers(t *testing.T) {
	s := scanModule(t)
	called := map[string]bool{} // every declaration's key → whether product code uses it
	var dead []string
	for _, d := range s.decls {
		called[d.key] = s.used(d) || s.implementsInterface(d)
		if _, listed := surfaceAllowlist[d.key]; !called[d.key] && !listed {
			dead = append(dead, d.key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no non-test caller outside bench/: delete it, move it into a _test.go, or add it to surfaceAllowlist with a reason", d)
	}
	for key, reason := range surfaceAllowlist {
		used, declared := called[key]
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("surfaceAllowlist entry %s has no reason", key)
		case !declared:
			t.Errorf("surfaceAllowlist entry %s is stale: no exported declaration has that name", key)
		case used:
			t.Errorf("surfaceAllowlist entry %s is stale: it now has a product caller", key)
		}
	}
}

// TestOneSpendRecorder holds the module to one place that records an ε
// spend: dp's (*Ledger).Commit has exactly one non-test caller, deploy S1's
// resolve.
func TestOneSpendRecorder(t *testing.T) {
	s := scanModule(t)
	var callers []string
	for from := range s.refs[s.module+"/internal/dp.Ledger.Commit"] {
		callers = append(callers, from)
	}
	sort.Strings(callers)
	if want := []string{"deploy.serveState.resolve"}; !slices.Equal(callers, want) {
		t.Errorf("dp's (*Ledger).Commit is called from %v, want only %v: every ε spend goes through deploy S1's ledger", callers, want)
	}
}

// TestFuzzTargetsMatchMakefile holds `make fuzz` to the fuzz targets in the
// tree: every func FuzzX has exactly one `make fuzz` line, in the package
// that declares it, and every line names an existing target.
func TestFuzzTargetsMatchMakefile(t *testing.T) {
	s := scanModule(t)
	mf, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	line := regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$'.* \./(\S*?)/?$`)
	lines := map[string][]string{}
	inFuzz := false
	sc := bufio.NewScanner(mf)
	for sc.Scan() {
		text := sc.Text()
		if !strings.HasPrefix(text, "\t") {
			inFuzz = strings.HasPrefix(text, "fuzz:")
			continue
		}
		if m := line.FindStringSubmatch(text); inFuzz && m != nil {
			lines[m[1]] = append(lines[m[1]], m[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, dirs := range s.fuzzDirs {
		got := lines[name]
		switch {
		case len(got) != 1:
			t.Errorf("%s (%v) has %d `make fuzz` lines, want 1", name, dirs, len(got))
		case len(dirs) != 1 || dirs[0] != got[0]:
			t.Errorf("`make fuzz` runs %s in ./%s/, but it is declared in %v", name, got[0], dirs)
		}
	}
	for name := range lines {
		if s.fuzzDirs[name] == nil {
			t.Errorf("`make fuzz` names %s, which no test file declares", name)
		}
	}
	if len(lines) == 0 {
		t.Fatal("found no `make fuzz` lines in the Makefile")
	}
}

// TestNoGCTuning holds the module to the collector's defaults: no non-test
// code calls runtime/debug.SetGCPercent or SetMemoryLimit, or sets GOGC or
// GOMEMLIMIT with os.Setenv. A query that runs faster must do so by
// allocating less, not by running the collector less often.
func TestNoGCTuning(t *testing.T) {
	for _, call := range scanModule(t).gcTuning {
		t.Errorf("%s tunes the garbage collector: allocate less instead", call)
	}
}

// bigExpGuarded names the packages whose hot products run on
// mathutil.Mont, each with the declarations that may still call
// (*big.Int).Exp and the reason each may: key generation, key validation
// at load, table construction, and named reference or fallback paths.
var bigExpGuarded = map[string]map[string]string{
	"paillier": {
		"paillier.PublicKey.blindTable":   "table construction: the blinding base 2^n mod n², once per key",
		"paillier.PrivateKey.ownTables":   "table construction: the bases 2^n mod p² and mod q², once per key",
		"paillier.hConstant":              "key generation and load: the CRT decryption constants h_p, h_q",
		"paillier.PublicKey.freshNonce":   "fallback for a hand-assembled key with no blinding table; generated and loaded keys have one",
		"paillier.PrivateKey.DecryptSlow": "named reference: the non-CRT decryption BenchmarkPaillierCRT measures the CRT path against",
	},
	"dgk": {
		"dgk.elementOfOrder":          "key generation: drawing g and h of the required orders",
		"dgk.PublicKey.checkSubgroup": "key validation at load: the generators' orders modulo each prime factor",
		"dgk.PublicKey.Encrypt":       "fallback for a hand-assembled key with no tables; generated and loaded keys have them",
		"dgk.PublicKey.gPow":          "fallback for a hand-assembled key with no g table (see dgk.PublicKey.Encrypt)",
	},
	"protocol": {},
}

// TestNoBigIntExpOnHotPaths fails on a non-test (*big.Int).Exp call in
// internal/paillier, internal/dgk or internal/protocol outside the
// declarations bigExpGuarded lists: every product there is a montMul in a
// mathutil.Mont context, whose contexts are built once per key, while
// big.Int.Exp rebuilds its Montgomery constants and allocates on every call.
// A listed declaration that no longer calls it is stale.
func TestNoBigIntExpOnHotPaths(t *testing.T) {
	s := scanModule(t)
	for from, at := range s.bigExp {
		pkg, _, _ := strings.Cut(from, ".")
		if _, ok := bigExpGuarded[pkg][from]; !ok {
			t.Errorf("%s calls (*big.Int).Exp at %v: run the power in a mathutil.Mont context, or list %s in bigExpGuarded with its reason", from, at, from)
		}
	}
	for pkg, allowed := range bigExpGuarded {
		for from, reason := range allowed {
			switch {
			case strings.TrimSpace(reason) == "":
				t.Errorf("bigExpGuarded[%q] entry %s has no reason", pkg, from)
			case len(s.bigExp[from]) == 0:
				t.Errorf("bigExpGuarded[%q] entry %s is stale: it calls no (*big.Int).Exp", pkg, from)
			}
		}
	}
}
