package thermostat

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
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
	pkgs, testImported := parseTree(t, ".")

	var internal []string
	for dir := range pkgs {
		if strings.HasPrefix(dir, "internal/") && !strings.Contains(strings.TrimPrefix(dir, "internal/"), "/") {
			internal = append(internal, dir)
		}
	}
	sort.Strings(internal)
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

	allowed := readAllowlist(t)
	if len(allowed) > maxAllowlisted {
		t.Errorf("%s has %d names, more than %d: the allowlist may only shrink", surfaceAllowlist, len(allowed), maxAllowlisted)
	}
	isUnused := map[string]bool{}
	for _, name := range unused {
		isUnused[name] = true
		if !allowed[name] {
			t.Errorf("%s is exported but nothing outside its package uses it: delete it, unexport it, or move it to export_test.go", name)
		}
	}
	for name := range allowed {
		if !isUnused[name] {
			t.Errorf("%s is on the allowlist but has an outside caller or is gone: remove it from %s", name, surfaceAllowlist)
		}
	}
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
func parseTree(t *testing.T, root string) (pkgs map[string]*surfacePkg, testImported map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
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

func readAllowlist(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(surfaceAllowlist)
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
