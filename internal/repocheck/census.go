package repocheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listedPackage is the part of one `go list -json` record the census
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string // import path -> vendored package path
	Standard   bool
	Module     *struct{ Path string }
}

// census is a module's non-test code, type-checked once: every
// object each package declares, every object some non-test file refers
// to, and every struct field some non-test file writes from outside the
// field's package.
type census struct {
	fset    *token.FileSet
	module  string           // module path
	pkgs    []*types.Package // module packages, dependencies first
	used    map[types.Object]bool
	written map[*types.Var]bool
	// ifaceMethods holds the interface methods a concrete method may be
	// reached through without naming it: every method the module calls
	// on an interface value, and every method of an interface the
	// standard library declares (fmt calls String, sort calls Less).
	ifaceMethods []*types.Func
}

// loadCensus lists every package `./...` needs from the module rooted
// at root, standard library included, and type-checks them all with
// go/types in the dependency order go list prints. Standard packages
// are checked for their declarations only, skipping function bodies as
// go/importer's source mode does; the module's non-test files are
// checked whole, recording every use.
func loadCensus(root string) (*census, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = root
	// The pure-Go files of net and os/user declare the same API as their
	// cgo files, and type-check without running cgo.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}
	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	c := &census{fset: fset, used: map[types.Object]bool{}, written: map[*types.Var]bool{}}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		if lp.ImportPath == "unsafe" {
			continue
		}
		if !lp.Standard && lp.Module == nil {
			return nil, fmt.Errorf("go list: %s belongs to no module", lp.ImportPath)
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{
			IgnoreFuncBodies: lp.Standard,
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if vendored, ok := lp.ImportMap[path]; ok {
					path = vendored
				}
				if p := checked[path]; p != nil {
					return p, nil
				}
				return nil, fmt.Errorf("go list printed %s before its import %s", lp.ImportPath, path)
			}),
		}
		pkgInfo := info
		if lp.Standard {
			pkgInfo = nil
		}
		pkg, err := conf.Check(lp.ImportPath, fset, files, pkgInfo)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		if lp.Standard {
			c.addInterfaces(pkg)
			continue
		}
		c.module = lp.Module.Path
		c.pkgs = append(c.pkgs, pkg)
		c.recordWrites(pkg, files, info)
	}
	if len(c.pkgs) == 0 {
		return nil, errors.New("go list: no packages in the module")
	}
	for _, obj := range info.Uses {
		c.use(obj)
	}
	for _, sel := range info.Selections {
		c.use(sel.Obj())
	}
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	c.ifaceMethods = append(c.ifaceMethods, errorType.Method(0))
	return c, nil
}

// recordWrites marks every struct field of another package that the
// files of pkg write: as a composite-literal key, on the left of an
// assignment or ++/--, or as the operand of &.
func (c *census) recordWrites(pkg *types.Package, files []*ast.File, info *types.Info) {
	mark := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
			c.written[v.Origin()] = true
		}
	}
	selected := func(e ast.Expr) types.Object {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj()
			}
		}
		return nil
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					mark(info.Uses[key])
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(selected(lhs))
				}
			case *ast.IncDecStmt:
				mark(selected(n.X))
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(selected(n.X))
				}
			}
			return true
		})
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// use records a reference to obj, and remembers a called interface
// method as a route to every concrete method matching it.
func (c *census) use(obj types.Object) {
	if c.used[obj] {
		return
	}
	c.used[obj] = true
	if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
		c.ifaceMethods = append(c.ifaceMethods, fn)
	}
}

// addInterfaces counts every method of every interface a standard
// package declares as called.
func (c *census) addInterfaces(std *types.Package) {
	scope := std.Scope()
	for _, name := range scope.Names() {
		if iface, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				c.ifaceMethods = append(c.ifaceMethods, iface.Method(i))
			}
		}
	}
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// reachable reports whether a non-test file refers to obj, directly or,
// for a concrete method, through a method of an interface its type
// implements.
func (c *census) reachable(obj types.Object) bool {
	if c.used[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil || isInterfaceMethod(fn) {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, m := range c.ifaceMethods {
		if m.Name() != fn.Name() {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// exported returns every exported package-level identifier and method
// the packages under the module's internal/ declare, keyed by its name
// relative to internal/: "ldp.NewGRR", "protocol.SpotCheck.Plant".
func (c *census) exported() map[string]types.Object {
	prefix := c.module + "/internal/"
	objs := map[string]types.Object{}
	for _, p := range c.pkgs {
		if !strings.HasPrefix(p.Path(), prefix) {
			continue
		}
		pkgName := strings.TrimPrefix(p.Path(), prefix)
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				objs[pkgName+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						objs[pkgName+"."+name+"."+m.Name()] = m
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					objs[pkgName+"."+name+"."+m.Name()] = m
				}
			}
		}
	}
	return objs
}

// uncalled checks every exported identifier under internal/ against the
// allow-list, which maps an identifier, or a whole package by its name
// relative to internal/, to the reason it may lack a caller.
func (c *census) uncalled(allow map[string]string) []string {
	return c.audit(c.exported(), c.reachable, allow, wording{
		kind: "exported identifier",
		pass: "has a caller",
		fail: "has no caller outside tests",
	})
}

// options returns every exported field of every exported struct type
// under internal/ named Config, …Config or …Policy, keyed by its name
// relative to internal/: "service.Config.BatchSize". An embedded
// config is no option of its own; its fields count on its type.
func (c *census) options() map[string]types.Object {
	fields := map[string]types.Object{}
	for name, obj := range c.exported() {
		tn, ok := obj.(*types.TypeName)
		if !ok || !(strings.HasSuffix(tn.Name(), "Config") || strings.HasSuffix(tn.Name(), "Policy")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !f.Embedded() {
				fields[name+"."+f.Name()] = f
			}
		}
	}
	return fields
}

// unset checks every option under internal/ against the allow-list,
// which maps a field, or a whole type by its name relative to
// internal/, to the reason no non-test code outside its package may
// set it. An option only tests set is a knob no deployment turns.
func (c *census) unset(allow map[string]string) []string {
	return c.audit(c.options(), func(obj types.Object) bool { return c.written[obj.(*types.Var)] }, allow, wording{
		kind: "option",
		pass: "is set outside its package",
		fail: "is set by no non-test code outside its package",
	})
}

// wording names what an audit checks, in its findings.
type wording struct {
	kind string // what the audited objects are
	pass string // what an object that passes does
	fail string // what an object that fails lacks
}

// audit checks objs, keyed by name relative to internal/, against
// pass and the allow-list. An entry excuses the object it names, or
// every object whose name it prefixes at a dot: a package, a type.
// audit returns one finding per entry that names nothing or whose
// objects all pass now, then one per failing object no entry excuses.
func (c *census) audit(objs map[string]types.Object, pass func(types.Object) bool, allow map[string]string, w wording) []string {
	known := map[string]bool{}
	stale := map[string]bool{}
	for entry := range allow {
		stale[entry] = true
	}
	var names []string
	for name, obj := range objs {
		ok := pass(obj)
		excused := false
		// Every dotted prefix of name, name itself last: "a", "a.B", "a.B.C".
		for i := 0; i <= len(name); i++ {
			if i < len(name) && name[i] != '.' {
				continue
			}
			prefix := name[:i]
			known[prefix] = true
			if _, listed := allow[prefix]; listed && !ok {
				delete(stale, prefix)
				excused = true
			}
		}
		if !ok && !excused {
			names = append(names, name)
		}
	}
	var findings []string
	for entry := range stale {
		if known[entry] {
			findings = append(findings, fmt.Sprintf("allow-list entry %s %s now; drop it", entry, w.pass))
		} else {
			findings = append(findings, fmt.Sprintf("allow-list entry %s names no %s", entry, w.kind))
		}
	}
	sort.Strings(findings)
	// Failing objects in declaration order, file by file.
	sort.Slice(names, func(i, j int) bool {
		pi, pj := c.fset.Position(objs[names[i]].Pos()), c.fset.Position(objs[names[j]].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	for _, name := range names {
		findings = append(findings, fmt.Sprintf("%s: %s %s", c.position(objs[name]), name, w.fail))
	}
	return findings
}

// position renders where obj is declared, relative to the module root.
func (c *census) position(obj types.Object) string {
	pos := c.fset.Position(obj.Pos())
	dir := strings.TrimPrefix(obj.Pkg().Path(), c.module+"/")
	return fmt.Sprintf("%s/%s:%d", dir, filepath.Base(pos.Filename), pos.Line)
}
