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

// TestNoUnusedExports keeps the module's code to what a program runs. It
// parses every Go file of the module, benchmark/, cmd/ and examples/
// included, and fails on three kinds of top-level name:
//
//   - one of a package under internal/, exported or not, that no non-test
//     file references: neither its own package's non-test code nor a
//     non-test file of another package. testOnlySeams lists the exceptions;
//   - an exported one of the test-only packages faultnet and testutil that
//     no file of another package references;
//   - an exported one of the root package that no file in examples/
//     references and that no other root declaration's signature names
//     (Broker, say, is kept by ListenBroker's result).
//
// A reference is a selector pkg.Name through an import, or, inside the
// package, an identifier that is not bound to a local declaration and lies
// outside the name's own declaration. Without type information the scan
// cannot follow methods or struct fields, so it covers top-level functions,
// types, variables and constants only.
func TestNoUnusedExports(t *testing.T) {
	m := scanModule(t, ".")
	var unused []string
	excepted := map[string]bool{}
	for _, d := range m.decls {
		key := d.pkg + "." + d.name
		switch {
		case d.pkg == "openmeta":
			if !m.usedByExamples[d.name] && !m.inRootSignature[d.name] {
				unused = append(unused, d.pos+": "+key+" is named by no example and no root signature")
			}
		case d.pkg == "openmeta/internal/faultnet" || d.pkg == "openmeta/internal/testutil":
			if !m.usedOutside[key] && !m.usedInside[key] {
				unused = append(unused, d.pos+": "+key+" is referenced by no other package and no non-test code of its own")
			}
		case !m.usedByCode[key] && !m.usedInside[key]:
			if _, ok := testOnlySeams[key]; ok {
				excepted[key] = true
			} else {
				unused = append(unused, d.pos+": "+key+" is referenced by no non-test file")
			}
		}
	}
	for key := range testOnlySeams {
		if !excepted[key] {
			unused = append(unused, "testOnlySeams lists "+key+", which is undeclared or referenced by non-test code")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
}

// testOnlySeams are the names under internal/ that only tests reference,
// each with the reason it stays.
var testOnlySeams = map[string]string{
	"openmeta/internal/discovery.withClock":         "gives the client a fake clock",
	"openmeta/internal/discovery.withHTTPClient":    "gives the client a fake transport",
	"openmeta/internal/discovery.withObserver":      "gives the client a private registry",
	"openmeta/internal/discovery.withTTL":           "gives the client a test's cache lifetime",
	"openmeta/internal/eventbus.withSlog":           "gives the broker a quiet logger",
	"openmeta/internal/eventbus.WithObserver":       "gives the broker a private registry",
	"openmeta/internal/eventbus.WithRecorder":       "gives the broker a private recorder",
	"openmeta/internal/eventbus.WithClientRecorder": "gives a client a private recorder",
	"openmeta/internal/pbio.WithObserver":           "gives a context a private registry",
	"openmeta/internal/dcg.WithObserver":            "gives a plan cache a private registry",
	"openmeta/internal/obsv.Delta":                  "reads registry movement in tests of several packages",
	"openmeta/internal/core.MatchXML":               "§4.1.1 instance matching, tested as a paper row",
	"openmeta/internal/core.MatchBinary":            "§4.1.1 instance matching, tested as a paper row",
	"openmeta/internal/core.ValidateRecord":         "§4.1.1 footnote 1 record validation, tested as a paper row",
	"openmeta/internal/core.SchemaForFormats":       "schema generation from formats, tested as a paper row",
}

// topDecl is one top-level name declared in a non-test file.
type topDecl struct {
	pkg, name, pos string
}

type moduleScan struct {
	decls []topDecl
	// usedOutside holds "importpath.Name" for every name that a file of
	// another package references, and usedByCode those that a non-test
	// file of another package references.
	usedOutside map[string]bool
	usedByCode  map[string]bool
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
		usedByCode:      map[string]bool{},
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
		isTest := strings.HasSuffix(p, "_test.go")
		if !isTest && (pkg == "openmeta" || strings.HasPrefix(pkg, "openmeta/internal/")) {
			m.addDecls(fset, pkg, f)
		}
		m.addRefs(pkg, f, isTest)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// addDecls records the top-level names of non-test file f (exported ones
// only for the root and the test-only packages), the package's own
// references in it, and, for the root package, the names its declarations'
// types mention.
func (m *moduleScan) addDecls(fset *token.FileSet, pkg string, f *ast.File) {
	allNames := pkg != "openmeta" && pkg != "openmeta/internal/faultnet" && pkg != "openmeta/internal/testutil"
	add := func(id *ast.Ident) {
		if id.IsExported() || (allNames && id.Name != "_" && id.Name != "init") {
			m.decls = append(m.decls, topDecl{pkg, id.Name, fset.Position(id.Pos()).String()})
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
		if self[id.Name] {
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
func (m *moduleScan) addRefs(pkg string, f *ast.File, isTest bool) {
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
		if !isTest {
			m.usedByCode[target+"."+sel.Sel.Name] = true
		}
		if target == "openmeta" && fromExamples {
			m.usedByExamples[sel.Sel.Name] = true
		}
		return true
	})
}
