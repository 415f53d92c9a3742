package openmeta

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnusedExports keeps the module's exported surface to what something
// calls. It parses every Go file of the module, benchmark/, cmd/ and
// examples/ included, and fails on two kinds of exported top-level name:
//
//   - one of a package under internal/ that only its own package's tests
//     reference, or nothing does. A reference from the package's own
//     non-test code or from any file of another package keeps a name; the
//     test-only packages faultnet and testutil are kept by other packages'
//     tests this way;
//   - one of the root package that no file in examples/ references and that
//     no other root declaration's signature names (Broker, say, is kept by
//     ListenBroker's result).
//
// A reference is a selector pkg.Name through an import, or, inside the
// package, an identifier that is not bound to a local declaration and lies
// outside the name's own declaration. Without type information the scan
// cannot follow methods or struct fields, so it covers top-level functions,
// types, variables and constants only.
func TestNoUnusedExports(t *testing.T) {
	m := scanModule(t, ".")
	var unused []string
	for _, d := range m.decls {
		key := d.pkg + "." + d.name
		if d.pkg == "openmeta" {
			if !m.usedByExamples[d.name] && !m.inRootSignature[d.name] {
				unused = append(unused, d.pos+": "+key+" is named by no example and no root signature")
			}
		} else if !m.usedOutside[key] && !m.usedInside[key] {
			unused = append(unused, d.pos+": "+key+" is referenced by no other package and no non-test code of its own")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
}

// exportedDecl is one exported top-level name declared in a non-test file.
type exportedDecl struct {
	pkg, name, pos string
}

type moduleScan struct {
	decls []exportedDecl
	// usedOutside holds "importpath.Name" for every name that a file of
	// another package references.
	usedOutside map[string]bool
	// usedInside holds "importpath.Name" for every name that non-test code
	// of its own package references outside the name's declaration.
	usedInside map[string]bool
	// usedByExamples holds the root names that files in examples/ reference.
	usedByExamples map[string]bool
	// inRootSignature holds the root names that another root declaration's
	// signature or type names.
	inRootSignature map[string]bool
}

// scanModule parses every Go file under root, the directory of module
// "openmeta", and indexes the declarations and references the test checks.
func scanModule(t *testing.T, root string) *moduleScan {
	t.Helper()
	m := &moduleScan{
		usedOutside:     map[string]bool{},
		usedInside:      map[string]bool{},
		usedByExamples:  map[string]bool{},
		inRootSignature: map[string]bool{},
	}
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg := "openmeta"
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			pkg += "/" + dir
		}
		if !strings.HasSuffix(p, "_test.go") && (pkg == "openmeta" || strings.HasPrefix(pkg, "openmeta/internal/")) {
			m.addDecls(fset, pkg, f)
		}
		m.addRefs(pkg, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// addDecls records the exported top-level names of non-test file f, the
// package's own references in it, and, for the root package, the names its
// declarations' types mention.
func (m *moduleScan) addDecls(fset *token.FileSet, pkg string, f *ast.File) {
	add := func(id *ast.Ident) {
		if id.IsExported() {
			m.decls = append(m.decls, exportedDecl{pkg, id.Name, fset.Position(id.Pos()).String()})
		}
	}
	for _, decl := range f.Decls {
		self := map[string]bool{}
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				// A method's references to its own receiver type do not
				// keep that type.
				for _, fl := range d.Recv.List {
					ast.Inspect(fl.Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							self[id.Name] = true
						}
						return true
					})
				}
			} else {
				add(d.Name)
				self[d.Name.Name] = true
				if pkg == "openmeta" {
					m.markRootNames(d.Name.Name, d.Type)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
					self[s.Name.Name] = true
					if pkg == "openmeta" {
						m.markRootNames(s.Name.Name, s.Type)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
						self[id.Name] = true
						if pkg == "openmeta" && s.Type != nil {
							m.markRootNames(id.Name, s.Type)
						}
					}
				}
			}
		}
		m.addInsideRefs(pkg, f, decl, self)
	}
}

// addInsideRefs records the package-level names that decl references
// without qualification, apart from the names in self.
func (m *moduleScan) addInsideRefs(pkg string, f *ast.File, decl ast.Decl, self map[string]bool) {
	refIdents(decl, func(id *ast.Ident) {
		if !id.IsExported() || self[id.Name] {
			return
		}
		// The parser binds an identifier to the object of a declaration in
		// the same file; one bound to anything but a file-level object is
		// local.
		if id.Obj != nil && f.Scope.Lookup(id.Name) != id.Obj {
			return
		}
		m.usedInside[pkg+"."+id.Name] = true
	})
}

// markRootNames records the root names that the declaration self's type
// expression names.
func (m *moduleScan) markRootNames(self string, typ ast.Node) {
	refIdents(typ, func(id *ast.Ident) {
		if id.Name != self {
			m.inRootSignature[id.Name] = true
		}
	})
}

// refIdents calls fn for every identifier under n that refers to a name
// rather than declaring one: the names of selectors, struct fields and
// parameters are skipped.
func refIdents(n ast.Node, fn func(*ast.Ident)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			refIdents(x.X, fn)
			return false
		case *ast.Field:
			refIdents(x.Type, fn)
			return false
		case *ast.Ident:
			fn(x)
		}
		return true
	})
}

// addRefs records the module names that file f of package pkg references
// through its imports.
func (m *moduleScan) addRefs(pkg string, f *ast.File) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || (p != "openmeta" && !strings.HasPrefix(p, "openmeta/")) {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	fromExamples := strings.HasPrefix(pkg, "openmeta/examples/")
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || x.Obj != nil {
			return true
		}
		target, ok := imports[x.Name]
		if !ok || target == pkg {
			return true
		}
		m.usedOutside[target+"."+sel.Sel.Name] = true
		if target == "openmeta" && fromExamples {
			m.usedByExamples[sel.Sel.Name] = true
		}
		return true
	})
}
