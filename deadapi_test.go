package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported functions and methods under internal/
// that no non-test code in the module references, and why each stays.
// "test support": tests, fault injection or golden reports use it.
// "paper mechanism": it implements something the paper describes, kept
// whether or not a program calls it yet. Keys are
// "<package dir under internal/>.<receiver type>.<name>", or
// "<package dir>.<name>" for functions.
var uncalledAllowed = map[string]string{
	"audit.Log.All":                  "test support",
	"audit.Log.ByPD":                 "test support",
	"audit.Log.CountByKind":          "test support",
	"audit.Log.Tamper":               "test support",
	"baseline.Heap.Alloc":            "paper mechanism",
	"baseline.Heap.Deref":            "paper mechanism",
	"baseline.Heap.DerefStale":       "paper mechanism",
	"baseline.Heap.Free":             "paper mechanism",
	"baseline.Heap.UAFReads":         "paper mechanism",
	"baseline.NewHeap":               "paper mechanism",
	"blockdev.Faulty.InjectedFaults": "test support",
	"blockdev.NewFaulty":             "test support",
	"blockdev.NewPowerCut":           "test support",
	"blockdev.PowerCut.SetBudget":    "test support",
	"collect.NewThirdPartySource":    "paper mechanism",
	"collect.WebFormSource.Pending":  "test support",
	"core.System.NPDResidueScan":     "test support",
	"core.System.SubmitForm":         "paper mechanism",
	"cryptoshred.Vault.Destroyed":    "test support",
	"cryptoshred.Vault.HasKey":       "test support",
	"cryptoshred.Vault.LiveKeys":     "test support",
	"dbfs.Open":                      "test support",
	"dbfs.Store.ColdRaw":             "test support",
	"dbfs.Store.ShardScans":          "test support",
	"dbfs.Store.SnapshotMembrane":    "test support",
	"ded.Ctx.Env":                    "paper mechanism",
	"ded.Ctx.PDID":                   "paper mechanism",
	"ded.Ctx.SubjectID":              "paper mechanism",
	"ded.Ctx.TypeName":               "paper mechanism",
	"gdprdata.CumulativePenalties":   "paper mechanism",
	"golden.JSON":                    "test support",
	"inode.FS.Check":                 "test support",
	"inode.FS.FreeBlocks":            "test support",
	"inode.FS.UsedBlocks":            "test support",
	"lsm.Guard.Denials":              "paper mechanism",
	"lsm.Guard.RegisterHook":         "paper mechanism",
	"lsm.Guard.Revoke":               "paper mechanism",
	"lsm.Token.Holder":               "paper mechanism",
	"plainfs.Mount":                  "test support",
	"ps.Store.Approve":               "paper mechanism",
	"ps.Store.Get":                   "paper mechanism",
	"ps.Store.List":                  "paper mechanism",
	"ps.Store.PendingAlerts":         "paper mechanism",
	"ps.Store.Reject":                "paper mechanism",
	"purpose.Format":                 "test support",
	"sandbox.Env.Exec":               "paper mechanism",
	"sandbox.Env.Open":               "paper mechanism",
	"sandbox.Env.Send":               "paper mechanism",
	"sandbox.Env.WriteFile":          "paper mechanism",
	"sandbox.Monitor.Attempts":       "paper mechanism",
	"sandbox.Monitor.DeniedCount":    "paper mechanism",
	"sandbox.UnconfinedProfile":      "paper mechanism",
	"simclock.Loop.Running":          "test support",
}

// implicitMethods are method names the standard library calls through its
// own interfaces (error, fmt.Stringer, errors.Unwrap, io.Reader, ...): a
// method with one of these names is reached once its value flows into the
// standard library, which no selector in the module shows.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "Format": true, "GoString": true,
	"Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// TestNoUncalledExportedAPI fails on an exported function or method under
// internal/ that no non-test Go file in the module uses, unless
// uncalledAllowed names it. Every non-test package of the module is
// type-checked from source (go/types; the standard library through
// go/importer's source importer, so nothing is fetched), and a use is an
// identifier that resolves to the declared object (types.Info.Uses). A
// concrete method also counts as used when its type implements an
// interface whose method of that name is used, since an interface call
// reaches every implementation.
func TestNoUncalledExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	mod, err := loadModule(fset, "repro")
	if err != nil {
		t.Fatal(err)
	}

	used := map[*types.Func]bool{}
	var ifaceUses []*types.Func // used methods declared by an interface
	for _, obj := range mod.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if !used[fn] && isInterfaceMethod(fn) {
			ifaceUses = append(ifaceUses, fn)
		}
		used[fn] = true
	}
	for _, pkg := range mod.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			for _, im := range ifaceUses {
				iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name()); m != nil {
					used[m.(*types.Func).Origin()] = true
				}
			}
		}
	}

	defined := map[string]bool{}
	var uncalled []string
	for _, d := range mod.decls {
		defined[d.key] = true
		if used[d.obj] || (d.obj.Type().(*types.Signature).Recv() != nil && implicitMethods[d.obj.Name()]) {
			if _, ok := uncalledAllowed[d.key]; ok {
				t.Errorf("%s is used now; drop it from uncalledAllowed", d.key)
			}
			continue
		}
		if _, ok := uncalledAllowed[d.key]; !ok {
			uncalled = append(uncalled, fset.Position(d.obj.Pos()).String()+": "+d.key)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("exported but used by no non-test code: %s (delete it, or allowlist it as test support or a paper mechanism)", u)
	}
	for key, why := range uncalledAllowed {
		if !defined[key] {
			t.Errorf("uncalledAllowed names %s, which is not defined", key)
		}
		if why != "test support" && why != "paper mechanism" {
			t.Errorf("uncalledAllowed[%s] = %q, want \"test support\" or \"paper mechanism\"", key, why)
		}
	}
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// exportedDecl is one exported function or method declared under internal/.
type exportedDecl struct {
	key string // "<package dir under internal/>.[<receiver type>.]<name>"
	obj *types.Func
}

// module is the type-checked non-test code of the module.
type module struct {
	info  *types.Info
	pkgs  []*types.Package
	decls []exportedDecl
}

// loadModule parses every non-test Go file under the working directory
// (the module root) and type-checks each package, importing module
// packages from this same pass and the standard library from source.
func loadModule(fset *token.FileSet, modPath string) (*module, error) {
	files := map[string][]*ast.File{} // by import path
	dirs := map[string]string{}       // import path -> dir
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		ip := modPath
		if dir != "." {
			ip = path.Join(modPath, dir)
		}
		files[ip] = append(files[ip], f)
		dirs[ip] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := &module{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	imp := &moduleImporter{
		fset: fset, files: files, checked: map[string]*types.Package{},
		std:  importer.ForCompiler(fset, "source", nil),
		info: m.info,
	}
	var paths []string
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		pkg, err := imp.Import(ip)
		if err != nil {
			return nil, err
		}
		m.pkgs = append(m.pkgs, pkg)
		dir := dirs[ip]
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files[ip] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := strings.TrimPrefix(dir, "internal/") + "."
				if fd.Recv != nil {
					key += recvTypeName(fd.Recv.List[0].Type) + "."
				}
				m.decls = append(m.decls, exportedDecl{key: key + fd.Name.Name, obj: m.info.Defs[fd.Name].(*types.Func)})
			}
		}
	}
	if len(m.decls) == 0 {
		return nil, fmt.Errorf("found no exported functions under internal/; run from the module root")
	}
	return m, nil
}

// moduleImporter type-checks module packages on first import, recording
// into one shared types.Info, and hands every other path to std.
type moduleImporter struct {
	fset    *token.FileSet
	files   map[string][]*ast.File
	checked map[string]*types.Package
	std     types.Importer
	info    *types.Info
}

func (imp *moduleImporter) Import(ip string) (*types.Package, error) {
	if pkg, ok := imp.checked[ip]; ok {
		return pkg, nil
	}
	files, ok := imp.files[ip]
	if !ok {
		return imp.std.Import(ip)
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(ip, imp.fset, files, imp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", ip, err)
	}
	imp.checked[ip] = pkg
	return pkg, nil
}

// recvTypeName is the base type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
