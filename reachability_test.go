package elevprivacy_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// reachAllowed lists the declarations that nothing reaches from the scan's
// roots but that stay on purpose, keyed as the scan names them: the package
// path below the module, then [Receiver.]Name. A test hook or test reference
// must also be used by some test.
var reachAllowed = map[string]struct {
	kind   allowKind
	reason string
}{
	"internal/httpx.WithPoolSleep":             {testHook, "replaces the retry loop's backoff sleep, so retry tests run without waiting"},
	"internal/httpx.MatchPath":                 {testHook, "aims FaultTripper faults at one endpoint, so a test can fault elevation calls and not explore calls"},
	"internal/httpx.FaultTripper.Calls":        {testHook, "lets fault tests count the attempts that reached the transport"},
	"internal/httpx.FaultTripper.Injected":     {testHook, "lets fault tests count the faults injected"},
	"internal/fleetobs.Federator.InstanceDump": {testHook, "exposes one scraped instance, so federation tests can compare it with its source registry"},
	"internal/ml/linalg.Adam.Step":             {testRef, "the one-gradient update that TestStepSumMatchesStepSequence holds StepSum to"},
	"internal/dem.ReadHGT":                     {srtm, "decodes an SRTM .hgt tile into the raster the stand-in samples"},
	"internal/dem.Tile.WriteHGT":               {srtm, "encodes a tile in the SRTM .hgt layout"},
	"internal/dem.Tile.Name":                   {srtm, "names a tile as SRTM files are named (N40W075)"},
	"internal/dem.ParseTileName":               {srtm, "reads an SRTM file name back into the tile's corner"},
	"internal/terrain.Terrain.Rasterize":       {srtm, "samples the procedural terrain into a raster"},
	"internal/terrain.Terrain.RasterizeTile":   {srtm, "samples the procedural terrain into a 1°x1° SRTM tile"},
}

type allowKind int

const (
	// testHook is an option or accessor that lets tests inject or observe
	// behaviour that the program leaves at its default.
	testHook allowKind = iota
	// testRef is a reference implementation a test checks the program against.
	testRef
	// srtm is part of the kept stand-in for SRTM elevation tiles: the HGT
	// codec, the raster it reads into, and the terrain's rasterizer.
	srtm
)

// TestEveryDeclarationIsReached fails for any package-level declaration in a
// non-test file that nothing reaches from the roots: main and init of every
// command and example, every declaration in the cmd/elevbench module, and the
// exported API of this package. A method is reached when something calls it,
// or when its type is reached and the method implements an interface. The
// entries of reachAllowed are further roots; an entry that something else
// reaches, or that names no declaration, fails too, so the list cannot go
// stale.
func TestEveryDeclarationIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	s, err := loadScan(".", filepath.Join("cmd", "elevbench"))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for key, a := range reachAllowed {
		allowed[key] = true
		if a.reason == "" {
			t.Errorf("reachAllowed[%q] gives no reason", key)
		}
		if a.kind != srtm && !s.testUsed[key] {
			t.Errorf("reachAllowed[%q] is a test hook or reference that no test uses", key)
		}
	}
	unreached := map[string]bool{}
	for _, d := range s.unreached(nil) {
		unreached[d.key] = true
	}
	for key := range reachAllowed {
		if !unreached[key] {
			t.Errorf("reachAllowed[%q] names no unreached declaration: drop the entry", key)
		}
	}
	for _, d := range s.unreached(allowed) {
		t.Errorf("%s: %s %s is reached by no command, example, cmd/elevbench or root API: delete it, or add it to reachAllowed with a reason", d.pos, d.kind, d.key)
	}
}

// listedPackage holds the fields of go list -json that the scan reads.
type listedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	Standard     bool
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
}

type decl struct {
	key, kind, pos string
}

type scan struct {
	decls    map[types.Object]*decl // package-level declarations in non-test files
	edges    map[types.Object][]types.Object
	roots    []types.Object
	testUsed map[string]bool // keys of what test files refer to
	ifaces   map[*types.Interface]bool
}

// loadScan type-checks every package of the modules in dirs (the first is
// the main module), test files included, against the standard library's
// export data from go list, and records what each declaration refers to.
func loadScan(dirs ...string) (*scan, error) {
	root, err := filepath.Abs(dirs[0])
	if err != nil {
		return nil, err
	}
	var pkgs []*listedPackage
	byPath := map[string]*listedPackage{}
	exports := map[string]string{}
	for _, dir := range dirs {
		cmd := exec.Command(goTool(), "list", "-export", "-deps", "-test", "-json", "./...")
		cmd.Dir = dir
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
		}
		dec := json.NewDecoder(strings.NewReader(string(out)))
		for {
			p := new(listedPackage)
			if err := dec.Decode(p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			switch {
			case p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test"):
			case p.Standard:
				exports[p.ImportPath] = p.Export
			case byPath[p.ImportPath] == nil:
				byPath[p.ImportPath] = p
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	s := &scan{
		decls:    map[types.Object]*decl{},
		edges:    map[types.Object][]types.Object{},
		testUsed: map[string]bool{},
		ifaces:   map[*types.Interface]bool{},
	}
	check := func(p *listedPackage, path string, names []string) error {
		var files []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		var errs []error
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
		tp, _ := conf.Check(path, fset, files, info)
		if len(errs) > 0 {
			return fmt.Errorf("type-checking %s: %w", path, errors.Join(errs...))
		}
		checked[path] = tp
		rel, _ := filepath.Rel(root, p.Dir)
		bench := rel == filepath.Join("cmd", "elevbench") || strings.HasPrefix(rel, filepath.Join("cmd", "elevbench")+string(filepath.Separator))
		for _, f := range files {
			s.addFile(fset, root, info, f, fileScope{
				test:  strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go"),
				main:  p.Name == "main",
				api:   p.Dir == root,
				bench: bench,
			})
		}
		return nil
	}
	order := topoOrder(pkgs, byPath)
	for _, p := range order {
		if err := check(p, p.ImportPath, append(append([]string(nil), p.GoFiles...), p.TestGoFiles...)); err != nil {
			return nil, err
		}
	}
	for _, p := range order {
		if len(p.XTestGoFiles) > 0 {
			if err := check(p, p.ImportPath+"_test", p.XTestGoFiles); err != nil {
				return nil, err
			}
		}
	}

	// The interfaces a reached type's methods may be called through: every
	// named interface of the standard library and both modules, and every
	// interface literal the modules write.
	for path := range exports {
		if tp, err := std.Import(path); err == nil {
			s.addNamedInterfaces(tp)
		}
	}
	for _, tp := range checked {
		s.addNamedInterfaces(tp)
	}
	// The errors package calls these through interfaces it declares inside
	// its functions, which export data does not carry.
	hidden, err := parser.ParseFile(fset, "errors.go", `package errors
type (
	wrapper      interface{ Unwrap() error }
	multiWrapper interface{ Unwrap() []error }
	iser         interface{ Is(error) bool }
	aser         interface{ As(any) bool }
)`, 0)
	if err != nil {
		return nil, err
	}
	tp, err := (&types.Config{}).Check("errors", fset, []*ast.File{hidden}, nil)
	if err != nil {
		return nil, err
	}
	s.addNamedInterfaces(tp)
	s.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return s, nil
}

type fileScope struct {
	test  bool // a _test.go file
	main  bool // in a main package
	api   bool // in the root package, whose exported API is a root
	bench bool // in the cmd/elevbench module, all of which is a root
}

// addFile records the declarations of one file and the package-level
// objects that each of them refers to.
func (s *scan) addFile(fset *token.FileSet, root string, info *types.Info, f *ast.File, fs fileScope) {
	pos := func(obj types.Object) string {
		p := fset.Position(obj.Pos())
		if r, err := filepath.Rel(root, p.Filename); err == nil {
			p.Filename = r
		}
		return p.String()
	}
	declare := func(obj types.Object, node ast.Node) {
		if obj == nil {
			return
		}
		if !fs.test {
			s.edges[obj] = appendRefs(s.edges[obj], info, node)
			switch {
			case obj.Name() == "_":
				// var _ I = (*T)(nil) asserts at compile time and keeps
				// nothing alive.
				return
			case obj.Name() == "init" && node.(*ast.FuncDecl).Recv == nil:
				s.roots = append(s.roots, obj)
				return
			case fs.bench || fs.main && obj.Name() == "main" || fs.api && isExportedAPI(obj):
				s.roots = append(s.roots, obj)
			}
			s.decls[obj] = &decl{key: declKey(obj), kind: declKind(obj), pos: pos(obj)}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.Name != "_" {
				declare(info.Defs[d.Name], d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declare(info.Defs[spec.Name], spec)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						declare(info.Defs[n], spec)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; fs.test && obj != nil && obj.Pkg() != nil {
				s.testUsed[declKey(origin(obj))] = true
			}
		case *ast.InterfaceType:
			if it, ok := info.TypeOf(n).(*types.Interface); ok {
				s.addInterface(it)
			}
		}
		return true
	})
}

// appendRefs appends the package-level objects and methods that node refers to.
func appendRefs(refs []types.Object, info *types.Info, node ast.Node) []types.Object {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil {
				refs = append(refs, origin(obj))
			}
		}
		return true
	})
	return refs
}

func (s *scan) addNamedInterfaces(tp *types.Package) {
	scope := tp.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				s.addInterface(it)
			}
		}
	}
}

func (s *scan) addInterface(it *types.Interface) {
	if it.IsMethodSet() && it.NumMethods() > 0 {
		s.ifaces[it] = true
	}
}

// unreached walks from the roots, and from the declarations whose keys are
// in extra, and returns every declaration it does not reach, by position.
func (s *scan) unreached(extra map[string]bool) []*decl {
	queue := append([]types.Object(nil), s.roots...)
	for obj, d := range s.decls {
		if extra[d.key] {
			queue = append(queue, obj)
		}
	}
	reached := map[types.Object]bool{}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		queue = append(queue, s.edges[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			queue = append(queue, s.interfaceMethods(tn)...)
		}
	}
	var out []*decl
	for obj, d := range s.decls {
		if !reached[obj] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// interfaceMethods returns the methods of tn's method set that implement a
// method of some interface that tn or *tn satisfies: a reached value of the
// type may be called through that interface.
func (s *scan) interfaceMethods(tn *types.TypeName) []types.Object {
	named, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() || types.IsInterface(named) {
		return nil
	}
	ptr := types.NewPointer(named)
	ms := types.NewMethodSet(ptr)
	if ms.Len() == 0 {
		return nil
	}
	var out []types.Object
	for it := range s.ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
				out = append(out, origin(sel.Obj()))
			}
		}
	}
	return out
}

// topoOrder orders the module's packages so each comes after the packages
// it and its in-package tests import; go list has already rejected cycles.
func topoOrder(pkgs []*listedPackage, byPath map[string]*listedPackage) []*listedPackage {
	seen := map[*listedPackage]bool{}
	var order []*listedPackage
	var visit func(p *listedPackage)
	visit = func(p *listedPackage) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range append(append([]string(nil), p.Imports...), p.TestImports...) {
			if q := byPath[imp]; q != nil {
				visit(q)
			}
		}
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return order
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// declKey names a declaration by its package path below the module and its
// [Receiver.]Name, as reachAllowed is keyed.
func declKey(obj types.Object) string {
	path := strings.TrimPrefix(obj.Pkg().Path(), "elevprivacy/")
	if fn, ok := obj.(*types.Func); ok {
		if n := recvNamed(fn); n != nil {
			return path + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return path + "." + obj.Name()
}

func declKind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if recvNamed(o) != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// isExportedAPI reports whether a root-package declaration is part of its
// exported API: an exported name, or an exported method of an exported type.
func isExportedAPI(obj types.Object) bool {
	if fn, ok := obj.(*types.Func); ok {
		if n := recvNamed(fn); n != nil {
			return fn.Exported() && n.Obj().Exported()
		}
	}
	return obj.Exported()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goTool is the go command of the toolchain running the test.
func goTool() string {
	p := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(p); err == nil {
		return p
	}
	return "go"
}
