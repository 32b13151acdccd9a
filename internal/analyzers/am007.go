package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AM007 reports exported struct fields declared in the simulation
// model packages that no non-test code reads. A counter the model
// bumps on every event and only a test reads is bookkeeping every
// session pays for and nothing measures: the test should read the tap
// at that layer (trace records, the sniffer capture, the BPF tap, what
// an endpoint received), or the field should go.
//
// Reads are counted over Module.Users, as AM006 counts uses. A write is
// not a read: the target of an assignment or op-assignment, the operand
// of ++ or --, a composite-literal key, the receiver of a sync/atomic
// Add, Store, Swap or CompareAndSwap (a typed-wrapper method or an
// &field argument), and every field on a selector chain that ends in
// one of these, up to the first pointer-typed field: x.Stats.F++ reads
// neither Stats nor F, but x.P.F = v loads the pointer P and so reads
// it. A struct compared with == or !=, or written as a map's key type,
// has every field read by the comparison, nested struct and array
// fields included. Fields are keyed like AM004's targets, by package,
// name and declaration line, so a field keys the same from source and
// from export data. Embedded fields are out of scope: they are read
// through the names they promote.
//
// The scope is the model and the two harnesses that drive it (testbed
// and experiments): outside it, fields are read by encoding/json
// reflection (fleet reports, /stats), which a static rule cannot see. Fields of a type the root facade aliases are exempt, as
// AM006 exempts their methods.
type AM007 struct{}

func (AM007) Code() string { return "AM007" }
func (AM007) Name() string { return "test-only-field" }
func (AM007) Doc() string {
	return "an exported struct field of the sim model has a non-test read"
}

// am007Scope is the simulated phone stack and its network, the layers
// whose only observers are the taps, plus the testbed that assembles
// them and the experiments that render the paper's tables from them.
var am007Scope = []string{
	"repro/internal/android",
	"repro/internal/cellular",
	"repro/internal/driver",
	"repro/internal/energy",
	"repro/internal/experiments",
	"repro/internal/kernel",
	"repro/internal/mac",
	"repro/internal/medium",
	"repro/internal/packet",
	"repro/internal/phy",
	"repro/internal/sdio",
	"repro/internal/server",
	"repro/internal/simtime",
	"repro/internal/sniffer",
	"repro/internal/testbed",
	"repro/internal/trace",
	"repro/internal/wired",
}

func (AM007) Run(m *Module, report func(token.Position, string)) {
	read := map[string]bool{}
	for _, pkg := range m.Users {
		for _, f := range pkg.Files {
			writes := fieldWrites(pkg.Info, f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if v, ok := pkg.Info.Uses[n].(*types.Var); ok && v.IsField() && !writes[n] {
						read[objKey(m.Fset, v)] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						comparedFields(m.Fset, pkg.Info.TypeOf(n.X), read)
					}
				case *ast.MapType:
					comparedFields(m.Fset, pkg.Info.TypeOf(n.Key), read)
				}
				return true
			})
		}
	}
	exempt := map[string]bool{}
	for _, n := range facadeAliased(m) {
		exempt[nameKey(n.Obj())] = true
	}
	for _, pkg := range m.Pkgs {
		if !inScope(pkg.Path, am007Scope) {
			continue
		}
		for _, f := range pkg.Files {
			forEachDecl(pkg.Info, f, func(n ast.Node, owns []string) {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || exempt[owns[0]] {
					return
				}
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							if obj := pkg.Info.Defs[id]; id.IsExported() && !read[objKey(m.Fset, obj)] {
								report(m.Fset.Position(id.Pos()),
									"exported field "+ts.Name.Name+"."+id.Name+" has no non-test read")
							}
						}
					}
					return true
				})
			})
		}
	}
}

// comparedFields marks read every field that comparing two values of
// type t compares: a struct's fields and, through struct and array
// values, theirs. A pointer compares by address, so it stops the walk.
func comparedFields(fset *token.FileSet, t types.Type, read map[string]bool) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			read[objKey(fset, u.Field(i))] = true
			comparedFields(fset, u.Field(i).Type(), read)
		}
	case *types.Array:
		comparedFields(fset, u.Elem(), read)
	}
}

// fieldWrites returns the identifiers in f that name a field only to
// write it (see AM007).
func fieldWrites(info *types.Info, f *ast.File) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	chain := func(e ast.Expr) {
		for outer := true; ; {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				// Writing through a pointer-typed field loads it.
				if t := info.TypeOf(x); !outer && t != nil {
					if _, ptr := t.Underlying().(*types.Pointer); ptr {
						return
					}
				}
				w[x.Sel] = true
				e, outer = x.X, false
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				chain(lhs)
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						w[id] = true
					}
				}
			}
		case *ast.CallExpr:
			fn, ok := calleeObj(info, n).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !atomicWrite(fn.Name()) {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
					chain(sel.X)
				}
			} else if len(n.Args) > 0 {
				if addr, ok := unparen(n.Args[0]).(*ast.UnaryExpr); ok && addr.Op == token.AND {
					chain(addr.X)
				}
			}
		}
		return true
	})
	return w
}

// atomicWrite reports whether a sync/atomic func or method name only
// writes its target: AddInt64, StoreUint32, Swap, CompareAndSwap, ...
func atomicWrite(name string) bool {
	for _, p := range []string{"Add", "Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
