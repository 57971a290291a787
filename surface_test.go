package thermostat

import (
	"bufio"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names, one "pkg.Name" a line, the exported top-level
// names of internal/ that no non-test code outside their package uses yet.
// It may only shrink: maxAllowlisted is its length, and an entry that
// gains a caller or disappears must be removed.
const (
	surfaceAllowlist  = "testdata/surface_allowlist.txt"
	maxAllowlisted    = 15
	maxInternalPkgs   = 25
	surfaceModulePath = "thermostat"
)

// TestExportedNamesHaveOutsideCallers pins the surface of internal/: every
// exported top-level func, type, const and var of an internal package must
// be used by non-test code outside that package (bench/, cmd/, examples/
// and the root package count), or be on the allowlist. Packages that only
// _test.go files import are test support and are not audited.
func TestExportedNamesHaveOutsideCallers(t *testing.T) {
	pkgs, testImported := parseTree(t, token.NewFileSet(), ".")

	internal := internalDirs(pkgs)
	if len(internal) > maxInternalPkgs {
		t.Errorf("internal/ holds %d packages, want at most %d", len(internal), maxInternalPkgs)
	}

	// used[dir][name]: a non-test file outside dir selects name from it.
	// imported[dir]: some non-test file outside dir imports it.
	used := map[string]map[string]bool{}
	imported := map[string]bool{}
	for dir, p := range pkgs {
		for _, f := range p.files {
			local := map[string]string{} // import name -> imported dir
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				rel, ok := strings.CutPrefix(ip, surfaceModulePath+"/")
				if !ok || rel == dir || pkgs[rel] == nil {
					continue
				}
				imported[rel] = true
				name := pkgs[rel].name
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = rel
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
					rel := local[x.Name]
					if used[rel] == nil {
						used[rel] = map[string]bool{}
					}
					used[rel][sel.Sel.Name] = true
				}
				return true
			})
		}
	}

	var unused []string
	for _, dir := range internal {
		if !imported[dir] && testImported[dir] {
			continue // test support, such as internal/golden
		}
		p := pkgs[dir]
		for _, name := range p.exported() {
			if !used[dir][name] {
				unused = append(unused, p.name+"."+name)
			}
		}
	}

	checkAllowlist(t, surfaceAllowlist, maxAllowlisted, unused, "nothing outside its package uses it")
}

// surfacePkg is one directory's non-test Go files.
type surfacePkg struct {
	name  string
	files []*ast.File
}

// exported lists the package's exported top-level funcs, types, consts and
// vars; methods are not top-level.
func (p *surfacePkg) exported() []string {
	var names []string
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return names
}

// parseTree parses every non-test Go file under root, keyed by the
// slash-separated directory relative to root, and reads the imports of
// every test file: testImported holds the directories some _test.go file
// outside them imports. Hidden directories and testdata are skipped;
// bench/, a module of its own, is included.
func parseTree(t *testing.T, fset *token.FileSet, root string) (pkgs map[string]*surfacePkg, testImported map[string]bool) {
	t.Helper()
	pkgs, testImported = map[string]*surfacePkg{}, map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := path.Dir(filepath.ToSlash(p))
		if strings.HasSuffix(p, "_test.go") {
			f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				rel, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), surfaceModulePath+"/")
				if ok && rel != dir {
					testImported[rel] = true
				}
			}
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if pkgs[dir] == nil {
			pkgs[dir] = &surfacePkg{name: f.Name.Name}
		}
		pkgs[dir].files = append(pkgs[dir].files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, testImported
}

// internalDirs lists the packages directly under internal/, sorted.
func internalDirs(pkgs map[string]*surfacePkg) []string {
	var dirs []string
	for dir := range pkgs {
		if strings.HasPrefix(dir, "internal/") && !strings.Contains(strings.TrimPrefix(dir, "internal/"), "/") {
			dirs = append(dirs, dir)
		}
	}
	sort.Strings(dirs)
	return dirs
}

// checkAllowlist fails on every unused entry the allowlist at path lacks,
// on every allowlisted entry that is no longer unused, and unless the list
// holds exactly max entries: it may only shrink, and its cap follows it
// down.
func checkAllowlist(t *testing.T, path string, max int, unused []string, why string) {
	t.Helper()
	allowed := readAllowlist(t, path)
	if len(allowed) != max {
		t.Errorf("%s has %d entries, want %d: the allowlist may only shrink, and its cap follows it down", path, len(allowed), max)
	}
	isUnused := map[string]bool{}
	for _, name := range unused {
		isUnused[name] = true
		if !allowed[name] {
			t.Errorf("%s is exported but %s: delete it, unexport it, or move it to export_test.go", name, why)
		}
	}
	for name := range allowed {
		if !isUnused[name] {
			t.Errorf("%s is on %s but is no longer unused or is gone: remove it", name, path)
		}
	}
}

func readAllowlist(t *testing.T, name string) map[string]bool {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			allowed[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}

// methodAllowlist names, one "pkg.Type.Method" a line under the reason it
// is kept, the exported methods of internal/ that no non-test code outside
// their package calls and no interface needs. Like surfaceAllowlist it may
// only shrink: maxMethodAllowlisted is its length.
const (
	methodAllowlist      = "testdata/surface_method_allowlist.txt"
	maxMethodAllowlisted = 10
)

// stdlibMethods are the methods the standard library calls through
// interfaces it declares itself: fmt.Stringer, error and errors.Unwrap.
var stdlibMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// TestExportedMethodsHaveCallers extends the surface audit to methods:
// every exported method declared in a non-test file of an internal package,
// on an exported or unexported type, must be called by non-test code
// outside its package (bench/, cmd/, examples/ and the root package count),
// be needed by an interface, or be on the method allowlist. A method is
// needed by an interface when its type satisfies an interface that the
// non-test code of either module declares (named or anonymous) or calls a
// method through, and the interface names the method; String, Error and
// Unwrap are needed by the standard library's. A method that only its own
// package's tests call belongs in that package's export_test.go.
func TestExportedMethodsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, testImported := parseTree(t, fset, ".")
	m := &moduleImporter{fset: fset, pkgs: pkgs, std: importer.Default(), checked: map[string]*checkedPkg{}}
	for dir := range pkgs {
		if _, err := m.check(dir); err != nil {
			t.Fatal(err)
		}
	}

	// called: a non-test file outside the method's package selects it.
	// ifaces: every interface non-test code declares or calls through.
	called := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	var named []*types.Named
	for dir, c := range m.checked {
		for _, sel := range c.info.Selections {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if it, ok := recv.Type().Underlying().(*types.Interface); ok {
				ifaces[it] = true
			} else if fn.Pkg() != c.pkg {
				called[fn.Origin()] = true
			}
		}
		for _, f := range pkgs[dir].files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.InterfaceType); ok {
					if it, ok := c.info.TypeOf(lit).(*types.Interface); ok {
						ifaces[it] = true
					}
				}
				return true
			})
		}
		named = append(named, namedTypes(c.pkg)...)
	}

	// needed: the method an interface reaches on a type that satisfies it,
	// promoted methods included.
	needed := map[*types.Func]bool{}
	for it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		for _, n := range named {
			for _, typ := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(typ, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					im := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(typ, false, im.Pkg(), im.Name()); obj != nil {
						needed[obj.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}

	var audited int
	var unused []string
	for _, dir := range internalDirs(pkgs) {
		if !m.imported(dir) && testImported[dir] {
			continue // test support, such as internal/golden
		}
		pkg := m.checked[dir].pkg
		for _, n := range namedTypes(pkg) {
			for i := 0; i < n.NumMethods(); i++ {
				fn := n.Method(i)
				if !fn.Exported() {
					continue
				}
				audited++
				if !called[fn] && !needed[fn] && !stdlibMethods[fn.Name()] {
					unused = append(unused, pkg.Name()+"."+n.Obj().Name()+"."+fn.Name())
				}
			}
		}
	}
	t.Logf("%d exported methods in internal/, %d without a caller or an interface", audited, len(unused))

	checkAllowlist(t, methodAllowlist, maxMethodAllowlisted, unused, "no non-test code outside its package calls it and no interface needs it")
}

// namedTypes lists pkg's top-level defined types other than interfaces:
// the types that declare methods.
func namedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// checkedPkg is one directory's non-test files, type-checked.
type checkedPkg struct {
	pkg  *types.Package
	info *types.Info
}

// moduleImporter type-checks the module's packages (bench/ included) from
// the parsed non-test files, once each, and imports the standard library
// from export data.
type moduleImporter struct {
	fset    *token.FileSet
	pkgs    map[string]*surfacePkg
	std     types.Importer
	checked map[string]*checkedPkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, surfaceModulePath+"/")
	if path == surfaceModulePath {
		dir, ok = ".", true
	}
	if !ok || m.pkgs[dir] == nil {
		return m.std.Import(path)
	}
	c, err := m.check(dir)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

func (m *moduleImporter) check(dir string) (*checkedPkg, error) {
	if c := m.checked[dir]; c != nil {
		return c, nil
	}
	path := surfaceModulePath
	if dir != "." {
		path += "/" + dir
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, m.pkgs[dir].files, info)
	if err != nil {
		return nil, err
	}
	c := &checkedPkg{pkg: pkg, info: info}
	m.checked[dir] = c
	return c, nil
}

// imported reports whether a non-test package other than dir imports it.
func (m *moduleImporter) imported(dir string) bool {
	for other, c := range m.checked {
		if other == dir {
			continue
		}
		for _, imp := range c.pkg.Imports() {
			if imp.Path() == surfaceModulePath+"/"+dir {
				return true
			}
		}
	}
	return false
}
