package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AM006 reports exported names declared under internal/ that no
// non-test code uses: package-level funcs, types, consts and vars, and
// exported methods (fields are out of scope). An export only tests call
// is surface that costs upkeep and gates nothing; the test should read
// production state through a production path, or the name should go.
//
// Uses are counted over Module.Users, the non-test code of the whole
// module plus its perfbench harness, whatever packages were asked for.
// A use inside the name's own declaration does not count, and neither
// does a type's mention in its own methods (receiver or body). Uses are
// keyed by package path, receiver type and name, not by types.Object:
// each package is checked against export data, so one named type is a
// different object in every package that imports it.
//
// Exempt are methods that complete an interface: the receiver's method
// set satisfies an interface, declared or used anywhere in the loaded
// code or satisfied implicitly through any (fmt.Stringer, error, the
// json and encoding marshalers), that has a method of that name and
// signature. Methods of a type the root facade aliases are exempt too:
// the facade is public API by design.
type AM006 struct{}

func (AM006) Code() string { return "AM006" }
func (AM006) Name() string { return "test-only-export" }
func (AM006) Doc() string {
	return "an exported name under internal/ has a non-test use"
}

// implicitMethods are the one-method interfaces values satisfy through
// any (fmt, errors, encoding/json and friends call them by assertion),
// as method name + signature key.
var implicitMethods = []string{
	"String()(string)", "Error()(string)",
	"MarshalJSON()([]uint8,error)", "UnmarshalJSON([]uint8)(error)",
	"MarshalBinary()([]uint8,error)", "UnmarshalBinary([]uint8)(error)",
	"MarshalText()([]uint8,error)", "UnmarshalText([]uint8)(error)",
}

func (a AM006) Run(m *Module, report func(token.Position, string)) {
	used := map[string]bool{}
	for _, pkg := range m.Users {
		for _, f := range pkg.Files {
			forEachDecl(pkg.Info, f, func(n ast.Node, owns []string) {
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if k := nameKey(pkg.Info.Uses[id]); k != "" && !contains(owns, k) {
							used[k] = true
						}
					}
					return true
				})
			})
		}
	}
	exempt := exemptMethods(m)
	for _, pkg := range m.Pkgs {
		if !strings.Contains("/"+pkg.Path+"/", "/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			forEachDecl(pkg.Info, f, func(n ast.Node, owns []string) {
				for _, id := range declaredIdents(n) {
					obj := pkg.Info.Defs[id]
					k := nameKey(obj)
					if k == "" || !obj.Exported() || used[k] || exempt[k] {
						continue
					}
					report(m.Fset.Position(id.Pos()), describe(obj)+" has no non-test use")
				}
			})
		}
	}
}

// forEachDecl calls fn for each top-level declaration unit of f — a
// func, a method, or one spec of a const/var/type group — with the
// keys of the names the unit declares. A method also owns its
// receiver's type, so a type's own methods never count as its uses.
func forEachDecl(info *types.Info, f *ast.File, fn func(n ast.Node, owns []string)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			obj, _ := info.Defs[d.Name].(*types.Func)
			if obj == nil {
				continue
			}
			owns := []string{nameKey(obj)}
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				if named := recvNamed(recv.Type()); named != nil {
					owns = append(owns, nameKey(named.Obj()))
				}
			}
			fn(d, owns)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var owns []string
				for _, id := range declaredIdents(spec) {
					owns = append(owns, nameKey(info.Defs[id]))
				}
				fn(spec, owns)
			}
		}
	}
}

// declaredIdents returns the names a declaration unit declares.
func declaredIdents(n ast.Node) []*ast.Ident {
	switch d := n.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{d.Name}
	case *ast.ValueSpec:
		return d.Names
	}
	return nil
}

// nameKey identifies a package-level name or a method across packages
// as "pkgpath.Name" or "pkgpath.Recv.Name"; "" for anything else
// (locals, fields, labels, package names, the universe).
func nameKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			named := recvNamed(recv.Type())
			if named == nil {
				return ""
			}
			return o.Pkg().Path() + "." + named.Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	case *types.PkgName, *types.Label:
		return ""
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named type behind a receiver type, or nil.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func describe(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			return "exported method " + recvNamed(recv.Type()).Obj().Name() + "." + o.Name()
		}
		return "exported func " + o.Name()
	case *types.TypeName:
		return "exported type " + o.Name()
	case *types.Const:
		return "exported const " + o.Name()
	}
	return "exported var " + obj.Name()
}

func contains(keys []string, k string) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// exemptMethods returns the keys of every method that completes an
// interface, or belongs to a type the root facade aliases. Interfaces
// and method sets are sets of method name + signature key.
func exemptMethods(m *Module) map[string]bool {
	var ifaces [][]string
	for _, k := range implicitMethods {
		ifaces = append(ifaces, []string{k})
	}
	seenIface := map[string]bool{}
	seenType := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seenType[t] {
			return
		}
		seenType[t] = true
		switch t := t.(type) {
		case *types.Named:
			walk(t.Underlying())
		case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
			walk(t.Elem())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.Interface:
			var iface []string
			for i := 0; i < t.NumMethods(); i++ {
				iface = append(iface, methodKey(t.Method(i)))
				walk(t.Method(i).Type())
			}
			sort.Strings(iface)
			if id := strings.Join(iface, ";"); id != "" && !seenIface[id] {
				seenIface[id] = true
				ifaces = append(ifaces, iface)
			}
		}
	}
	var named []*types.Named
	exempt := map[string]bool{}
	for _, pkg := range append(append([]*Package(nil), m.Users...), m.Pkgs...) {
		for _, tv := range pkg.Info.Types {
			walk(tv.Type)
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				walk(obj.Type())
			}
		}
		for _, obj := range pkg.Info.Uses {
			walk(obj.Type())
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.TYPE {
					for _, spec := range d.Specs {
						ts := spec.(*ast.TypeSpec)
						if n := recvNamed(pkg.Info.TypeOf(ts.Type)); ts.Assign.IsValid() && isFacadeOf(pkg.Path, n) {
							for _, fn := range methodSet(n) {
								exempt[nameKey(fn)] = true
							}
						}
					}
				}
			}
		}
	}
	for _, n := range named {
		have := methodSet(n)
	ifaces:
		for _, iface := range ifaces {
			for _, k := range iface {
				if have[k] == nil {
					continue ifaces
				}
			}
			for _, k := range iface {
				exempt[nameKey(have[k])] = true
			}
		}
	}
	return exempt
}

// methodSet indexes the pointer method set of n by method key.
func methodSet(n *types.Named) map[string]types.Object {
	mset := types.NewMethodSet(types.NewPointer(n))
	out := make(map[string]types.Object, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		out[methodKey(mset.At(i).Obj())] = mset.At(i).Obj()
	}
	return out
}

// methodKey is a method's name and signature key, "String()(string)".
func methodKey(fn types.Object) string {
	return fn.Name() + sigKey(fn.Type().(*types.Signature))
}

// isFacadeOf reports whether pkgPath is the root package of the module
// that declares n under internal/ ("repro" for "repro/internal/agg").
func isFacadeOf(pkgPath string, n *types.Named) bool {
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	root, _, ok := strings.Cut(n.Obj().Pkg().Path(), "/internal/")
	return ok && root == pkgPath
}

// sigKey renders a signature's parameter and result types without
// names or receiver (nested func types included), so a method and an
// interface method declared in different packages compare as strings.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple, variadic bool) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			typ := t.At(i).Type()
			if variadic && i == t.Len()-1 {
				b.WriteString("...")
				typ = typ.(*types.Slice).Elem()
			}
			b.WriteString(typeKey(typ))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params(), sig.Variadic())
	tuple(sig.Results(), false)
	return b.String()
}

// typeKey renders t for sigKey: nested signatures lose their parameter
// names, and byte and rune print as uint8 and int32 whether they came
// from source or from export data.
func typeKey(t types.Type) string {
	switch t := t.(type) {
	case *types.Basic:
		return types.Typ[t.Kind()].Name()
	case *types.Pointer:
		return "*" + typeKey(t.Elem())
	case *types.Slice:
		return "[]" + typeKey(t.Elem())
	case *types.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), typeKey(t.Elem()))
	case *types.Map:
		return "map[" + typeKey(t.Key()) + "]" + typeKey(t.Elem())
	case *types.Chan:
		return fmt.Sprintf("chan%d %s", t.Dir(), typeKey(t.Elem()))
	case *types.Signature:
		return "func" + sigKey(t)
	}
	return types.TypeString(t, nil)
}
