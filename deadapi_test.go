package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	"baseline.NewHeap":               "paper mechanism",
	"baseline.Heap.Deref":            "paper mechanism",
	"baseline.Heap.DerefStale":       "paper mechanism",
	"baseline.Heap.UAFReads":         "paper mechanism",
	"blockdev.NewFaulty":             "test support",
	"blockdev.Faulty.InjectedFaults": "test support",
	"blockdev.NewPowerCut":           "test support",
	"blockdev.PowerCut.SetBudget":    "test support",
	"cluster.Cluster.LedgerEntries":  "test support",
	"collect.NewThirdPartySource":    "paper mechanism",
	"collect.WebFormSource.Pending":  "test support",
	"core.System.NPDResidueScan":     "test support",
	"core.System.SubmitForm":         "paper mechanism",
	"cryptoshred.Vault.HasKey":       "test support",
	"cryptoshred.Vault.Destroyed":    "test support",
	"cryptoshred.Vault.LiveKeys":     "test support",
	"dbfs.Open":                      "test support",
	"dbfs.ShardOf":                   "test support",
	"dbfs.Store.ColdRaw":             "test support",
	"dbfs.Store.ShardScans":          "test support",
	"dbfs.Store.SnapshotMembrane":    "test support",
	"gdprdata.CumulativePenalties":   "paper mechanism",
	"golden.JSON":                    "test support",
	"inode.FS.FreeBlocks":            "test support",
	"inode.FS.UsedBlocks":            "test support",
	"lsm.Guard.RegisterHook":         "paper mechanism",
	"lsm.Guard.Revoke":               "paper mechanism",
	"lsm.Token.Holder":               "paper mechanism",
	"plainfs.Mount":                  "test support",
	"ps.Store.Approve":               "paper mechanism",
	"ps.Store.PendingAlerts":         "paper mechanism",
	"ps.Store.Reject":                "paper mechanism",
	"purpose.Format":                 "test support",
	"sandbox.Env.Exec":               "paper mechanism",
	"sandbox.Env.Send":               "paper mechanism",
	"sandbox.Monitor.Attempts":       "paper mechanism",
	"sandbox.Monitor.DeniedCount":    "paper mechanism",
	"sandbox.UnconfinedProfile":      "paper mechanism",
}

// implicitMethods are method names the standard library calls through its
// own interfaces (error, fmt.Stringer, errors.Unwrap, io.Reader, ...), so
// a method with one of these names is reached without a selector naming it.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "Format": true, "GoString": true,
	"Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// TestNoUncalledExportedAPI fails on an exported function or method under
// internal/ that no non-test Go file in the module references, unless
// uncalledAllowed names it. References are matched by name with go/parser
// alone: a function counts as referenced when a selector pkg.Name names it
// or its own package mentions it; a method when any selector in the module
// uses its name or any interface declares it. Matching methods by name
// can miss dead code that shares a name with live code; it never flags
// live code.
func TestNoUncalledExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	selectors := map[string]bool{}            // every X.Name selector name
	qualified := map[string]bool{}            // every pkg.Name selector on a bare identifier
	ifaceMethods := map[string]bool{}         // every method name an interface declares
	pkgIdents := map[string]map[string]bool{} // per package dir: every identifier use
	type decl struct {
		key, name string
		method    bool
		dir       string
		pos       token.Position
	}
	var decls []decl

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		idents := pkgIdents[dir]
		if idents == nil {
			idents = map[string]bool{}
			pkgIdents[dir] = idents
		}
		notBare := map[*ast.Ident]bool{} // declared names and selector names
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			notBare[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			key := strings.TrimPrefix(dir, "internal/") + "."
			if fd.Recv != nil {
				key += recvTypeName(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{
				key: key + fd.Name.Name, name: fd.Name.Name, method: fd.Recv != nil,
				dir: dir, pos: fset.Position(fd.Pos()),
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selectors[n.Sel.Name] = true
				notBare[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					qualified[x.Name+"."+n.Sel.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.Ident:
				if !notBare[n] {
					idents[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/; run from the module root")
	}

	defined := map[string]bool{}
	var uncalled []string
	for _, d := range decls {
		defined[d.key] = true
		var used bool
		if d.method {
			used = selectors[d.name] || ifaceMethods[d.name] || implicitMethods[d.name]
		} else {
			used = qualified[path.Base(d.dir)+"."+d.name] || pkgIdents[d.dir][d.name]
		}
		if used {
			if _, ok := uncalledAllowed[d.key]; ok {
				t.Errorf("%s is referenced now; drop it from uncalledAllowed", d.key)
			}
			continue
		}
		if _, ok := uncalledAllowed[d.key]; !ok {
			uncalled = append(uncalled, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("exported but referenced by no non-test code: %s (delete it, or allowlist it as test support or a paper mechanism)", u)
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
