package mmis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportKeep names each exported function or method that no non-test
// code calls and that stays anyway, with the reason it stays.  Keys are
// "pkg.Func" or "pkg.Type.Method", pkg being the last element of the
// import path.
var exportKeep = map[string]string{
	// Public API: reachable through the mmis facade's type aliases.
	"core.Layout.Clusters": "public API through the mmis.Layout alias",
	"core.Store.Used":      "public API through the mmis.Store alias",
	"core.Store.PlaceAt":   "public API through the mmis.Store alias; mmis_test.go tests it",
	"media.Catalog.Len":    "public API through the mmis.Catalog alias",

	// Checkers other packages' tests read; their run-time callers are
	// ROADMAP item 14's continuous exactness checks.
	"sched.Engine.CheckCache":       "checker read by other packages' tests (ROADMAP item 14)",
	"cache.Tier.Used":               "checker read by other packages' tests (ROADMAP item 14)",
	"workload.Stations.Busy":        "checker read by other packages' tests (ROADMAP item 14)",
	"workload.Stations.Outstanding": "checker read by other packages' tests (ROADMAP item 14)",
	"workload.Stations.TotalIssued": "checker read by other packages' tests (ROADMAP item 14)",

	// Referees of Algorithms 1 and 2, whose measured price is ROADMAP
	// item 15.
	"vdisk.NewAssignment":         "Algorithm 1 referee: the oracleChoose oracle builds its answer with it (ROADMAP item 15)",
	"vdisk.Assignment.MaxBuffers": "Algorithm 1 buffer referee (ROADMAP item 15)",
	"vdisk.Assignment.Contiguous": "Algorithm 1 referee (ROADMAP item 15)",
	"vdisk.Delivery.MaxBuffered":  "Algorithm 1 buffer referee (ROADMAP item 15)",
	"vdisk.Delivery.Coalescings":  "Algorithm 2 referee (ROADMAP item 15)",
}

// TestExportsHaveCallers type-checks every non-test package of the
// module, with the commands, the examples and perfbench as callers,
// and fails on each exported function or method that no non-test code
// uses and exportKeep does not name.  A method counts as used when it
// is named directly, or when its type implements an interface the
// program names and calls that method through.  String and Error are
// set aside: fmt and errors call them.
func TestExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		module: "github.com/mmsim/staggered",
		std:    importer.ForCompiler(fset, "source", nil),
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:   map[string]*types.Package{},
		uses:   map[types.Object]bool{},
	}

	var dirs []string
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := l.load(dir); err != nil {
			t.Fatal(err)
		}
	}

	// A method called through an interface the program names counts
	// for each type that implements it.
	var ifaces []*types.Interface
	for _, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		l.uses[obj] = true
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	implemented := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if m := it.Method(i); m.Name() == fn.Name() && l.uses[m] && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	var missing []string
	kept := map[string]bool{}
	for _, fn := range l.exported {
		if l.uses[fn] || fn.Name() == "String" || fn.Name() == "Error" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		key := path.Base(fn.Pkg().Path()) + "."
		if sig.Recv() != nil {
			if implemented(fn) {
				continue
			}
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			key += rt.(*types.Named).Obj().Name() + "."
		}
		key += fn.Name()
		if _, ok := exportKeep[key]; ok {
			kept[key] = true
			continue
		}
		missing = append(missing, key+" ("+l.fset.Position(fn.Pos()).String()+")")
	}
	slices.Sort(missing)
	for _, m := range missing {
		t.Errorf("exported %s has no non-test caller: give it one, unexport or delete it, or name it in exportKeep with the reason it stays", m)
	}
	for key := range exportKeep {
		if kept[key] {
			continue
		}
		t.Errorf("exportKeep names %s, which is gone or now has a caller", key)
	}
}

// loader type-checks the module's packages from source, sharing one
// types.Info, so a use in one package resolves to the object another
// declared.  The standard library comes from the source importer.
type loader struct {
	fset     *token.FileSet
	module   string
	std      types.Importer
	info     *types.Info
	pkgs     map[string]*types.Package // by import path
	uses     map[types.Object]bool
	exported []*types.Func
}

// importPath maps a directory of the repository to its import path;
// perfbench is a module of its own whose files are read as callers.
func (l *loader) importPath(dir string) string {
	if dir == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(dir)
}

func (l *loader) Import(p string) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(p, l.module+"/"); ok {
		return l.load(filepath.FromSlash(rel))
	}
	if p == l.module {
		return l.load(".")
	}
	return l.std.Import(p)
}

// load parses and type-checks the non-test Go files of dir, once, and
// records its exported functions and methods.  A directory without Go
// files loads as nil.
func (l *loader) load(dir string) (*types.Package, error) {
	ip := l.importPath(dir)
	if pkg, ok := l.pkgs[ip]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(ip, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[ip] = pkg
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				l.exported = append(l.exported, l.info.Defs[fd.Name].(*types.Func))
			}
		}
	}
	return pkg, nil
}
