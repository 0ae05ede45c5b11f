package adept2_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusPkg is one directory of the module: its non-test files, checked
// once and imported by everything else, and its two kinds of test file.
type censusPkg struct {
	path                    string
	files, inTests, exTests []*ast.File
	types                   *types.Package
	err                     error
}

// census type-checks the module from one parse of its files, so an
// object's declaration position names it in every variant of its package
// (alone, with its in-package tests, as seen by its external tests).
type census struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*censusPkg
	// refs counts, per declaration position, the identifiers that resolve
	// to it from a non-test file of another package, from a non-test file
	// of its own package, and from a test file.
	refs map[token.Pos]*[3]int
	// span is the extent of each candidate's own declaration, and defs
	// what the package's own check made of the identifier declared there.
	span map[token.Pos][2]token.Pos
	defs map[token.Pos]types.Object
	// ifaces is every interface a method may be there to satisfy.
	ifaces []*types.Interface
}

const (
	refOutside = iota
	refInside
	refTest
)

func (c *census) Import(path string) (*types.Package, error) {
	p, ok := c.pkgs[path]
	if !ok {
		return c.std.Import(path)
	}
	if p.types == nil && p.err == nil {
		p.types, p.err = c.check(p.path, p.files, c, refOutside, false)
	}
	return p.types, p.err
}

// check type-checks one variant of a package and records what its files
// reference. A test variant may not type-check (its view of the package
// under test is a second copy of it); its resolved identifiers still count.
func (c *census) check(path string, files []*ast.File, imp types.Importer, kind int, tolerant bool) (*types.Package, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	if tolerant {
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil && !tolerant {
		return nil, err
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || c.pkgs[obj.Pkg().Path()] == nil {
			continue
		}
		if kind == refTest && !strings.HasSuffix(c.fset.File(id.Pos()).Name(), "_test.go") {
			continue // a non-test file checked again beside its tests
		}
		if s, own := c.span[obj.Pos()]; own && s[0] <= id.Pos() && id.Pos() < s[1] {
			continue // inside its own declaration
		}
		k := kind
		if k == refOutside && obj.Pkg().Path() == path {
			k = refInside
		}
		r := c.refs[obj.Pos()]
		if r == nil {
			r = new([3]int)
			c.refs[obj.Pos()] = r
		}
		r[k]++
	}
	if kind == refOutside {
		for id, obj := range info.Defs {
			c.defs[id.Pos()] = obj
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					c.ifaces = append(c.ifaces, it)
				}
			}
		}
	}
	return pkg, nil
}

// satisfiesInterface reports whether the method is one an interface of the
// tree (or of the listed standard ones) asks of its receiver.
func (c *census) satisfiesInterface(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range c.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// TestExportCensus lists every exported func, method, type, var and const
// of internal/... that no non-test file outside its package references,
// leaving out methods that satisfy an interface. One with no reference at
// all outside its own declaration fails the test: it is dead. The rest are
// printed, and counted by whether only tests use them (a twin of a
// production function, or a test helper in a production file) or only
// their own package does (could be unexported).
func TestExportCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	c := &census{
		fset: token.NewFileSet(),
		pkgs: map[string]*censusPkg{},
		refs: map[token.Pos]*[3]int{},
		span: map[token.Pos][2]token.Pos{},
		defs: map[token.Pos]types.Object{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	const module = "adept2"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n[0] == '.' || n == "testdata" || n == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ipath := module
		if dir != "." {
			ipath += "/" + filepath.ToSlash(dir)
		}
		p := c.pkgs[ipath]
		if p == nil {
			p = &censusPkg{path: ipath}
			c.pkgs[ipath] = p
		}
		switch {
		case !strings.HasSuffix(path, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.exTests = append(p.exTests, f)
		default:
			p.inTests = append(p.inTests, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The candidates, and the extent of each one's own declaration.
	type candidate struct {
		name string
		id   *ast.Ident
	}
	var cands []candidate
	for _, p := range c.pkgs {
		if !strings.HasPrefix(p.path, module+"/internal/") {
			continue
		}
		short := strings.TrimPrefix(p.path, module+"/internal/")
		add := func(id *ast.Ident, recv string, from, to token.Pos) {
			if id.IsExported() {
				c.span[id.Pos()] = [2]token.Pos{from, to}
				cands = append(cands, candidate{short + "." + recv + id.Name, id})
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					recv := ""
					if d.Recv != nil {
						recv = types.ExprString(d.Recv.List[0].Type) + "."
						if !ast.IsExported(strings.TrimLeft(recv, "*")) {
							continue // out of reach by name, whatever it is called
						}
					}
					add(d.Name, recv, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, "", s.Pos(), s.End())
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, "", s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
	}

	for _, name := range []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler", "io/fs.FileInfo", "io/fs.DirEntry", "net/http.ResponseWriter"} {
		dot := strings.LastIndex(name, ".")
		pkg, err := c.std.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		c.ifaces = append(c.ifaces, pkg.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface))
	}
	c.ifaces = append(c.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for path, p := range c.pkgs {
		if len(p.files) > 0 {
			if _, err := c.Import(path); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
	}
	for path, p := range c.pkgs {
		withTests := p.types
		if len(p.inTests) > 0 {
			withTests, _ = c.check(path, append(append([]*ast.File{}, p.files...), p.inTests...), c, refTest, true)
		}
		if len(p.exTests) > 0 {
			c.check(path+"_test", p.exTests, importerFunc(func(ipath string) (*types.Package, error) {
				if ipath == path && withTests != nil {
					return withTests, nil
				}
				return c.Import(ipath)
			}), refTest, true)
		}
	}

	var listed, dead []string
	testOnly, packageOnly := 0, 0
	for _, cand := range cands {
		r := c.refs[cand.id.Pos()]
		if r == nil {
			r = new([3]int)
		}
		if r[refOutside] > 0 {
			continue
		}
		if m, ok := c.defs[cand.id.Pos()].(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil && c.satisfiesInterface(m) {
			continue
		}
		switch {
		case r[refInside] > 0:
			packageOnly++
			listed = append(listed, cand.name+"  (its package only)")
		case r[refTest] > 0:
			testOnly++
			listed = append(listed, cand.name+"  (tests only)")
		default:
			dead = append(dead, cand.name)
		}
	}
	sort.Strings(listed)
	sort.Strings(dead)
	t.Logf("exported by internal/... and referenced by no non-test file outside the package: %d, of which test-only %d, package-only %d, unreferenced %d\n%s",
		len(listed)+len(dead), testOnly, packageOnly, len(dead), strings.Join(listed, "\n"))
	if len(dead) > 0 {
		t.Errorf("exported and referenced nowhere outside their own declaration:\n%s", strings.Join(dead, "\n"))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
