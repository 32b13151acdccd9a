package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AM002 enforces the hostile-input decode discipline of the binary
// ingest wire (PR 6): a size or length read off the wire must be
// checked against a cap (or the bytes actually present) before it
// sizes an allocation. Concretely, inside the wire-decode packages a
// value produced by a varint/binary read taints every variable derived
// from it; using a tainted, never-compared value as
//
//   - a make() length or capacity,
//   - a slice-expression bound (the string-copy path), or
//   - the bound of a loop that appends
//
// is a finding. A comparison of the value in any if-condition (the
// `if n > maxX` cap-check idiom) or passing it to a *cap/check/valid/
// budget/clamp* helper clears the taint. The analyzer is per-function
// and deliberately conservative: cross-function taint is out of scope,
// and the shared wire cursor's read methods (cursorMethods) are sources
// wherever they are called.
type AM002 struct{}

func (AM002) Code() string { return "AM002" }
func (AM002) Name() string { return "decode-bounds" }
func (AM002) Doc() string {
	return "wire-derived sizes must pass a cap check before sizing an allocation"
}

// am002Scope is every package that parses untrusted wire bytes.
var am002Scope = []string{
	"repro/internal/ingest",
	"repro/internal/agg",
	"repro/internal/cluster",
	"repro/internal/wirebuf",
}

// wireReadFuncs are the encoding/binary readers whose results are
// attacker-controlled.
var wireReadFuncs = map[string]bool{
	"ReadUvarint": true, "ReadVarint": true,
	"Uvarint": true, "Varint": true,
	"Uint16": true, "Uint32": true, "Uint64": true,
}

// cursorType names the one bounds-checked wire cursor every binary
// decoder reads through (wirebuf.Cursor). Its cursorMethods results come
// off the wire too, so a call to one is a taint source in every
// in-scope package: methods match by receiver type, not by name, and a
// decoder cannot drop out of the check by living in another package.
const cursorType = "repro/internal/wirebuf.Cursor"

// streamRead is wirebuf's stream uvarint reader, a source like
// binary.ReadUvarint, which it replaces.
const streamRead = "repro/internal/wirebuf.ReadUvarint"

var cursorMethods = map[string]bool{
	"Uvarint": true, "Varint": true, "Uint63": true, "Count": true, "Field": true,
}

// clearingCallRE matches helper names whose job is bounding a value;
// passing a tainted value into one counts as the check.
var clearingNames = []string{"cap", "check", "valid", "budget", "clamp", "min", "bound"}

func (a AM002) Run(m *Module, report func(token.Position, string)) {
	for _, pkg := range m.Pkgs {
		if !inScope(pkg.Path, am002Scope) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				a.checkFunc(m, pkg, fd, report)
			}
		}
	}
}

// taintState tracks, per function, which local variables carry
// wire-derived values and which of those have since been compared.
type taintState struct {
	pkg     *Package
	tainted map[types.Object]bool
	checked map[types.Object]bool
}

func (a AM002) checkFunc(m *Module, pkg *Package, fd *ast.FuncDecl, report func(token.Position, string)) {
	st := &taintState{
		pkg:     pkg,
		tainted: map[types.Object]bool{},
		checked: map[types.Object]bool{},
	}
	// Pre-order traversal approximates source order, which is what the
	// read-then-check-then-allocate discipline is about.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			st.markComparisons(n.Cond)
		case *ast.AssignStmt:
			st.assign(n)
		case *ast.CallExpr:
			st.clearViaHelper(n)
			a.checkMake(m, st, n, report)
		case *ast.SliceExpr:
			for _, bound := range [...]ast.Expr{n.Low, n.High, n.Max} {
				if bound == nil {
					continue
				}
				if obj := st.dirtyIn(bound); obj != nil {
					report(m.Fset.Position(n.Pos()), fmt.Sprintf(
						"slice bound uses wire-read value %s before any cap check", obj.Name()))
					st.checked[obj] = true // one finding per value
				}
			}
		case *ast.ForStmt:
			a.checkLoopAppend(m, st, n, report)
		}
		return true
	})
}

// sourceCall reports whether call reads straight off the wire.
func (st *taintState) sourceCall(call *ast.CallExpr) bool {
	obj := calleeObj(st.pkg.Info, call)
	if obj == nil {
		return false
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "encoding/binary" && wireReadFuncs[obj.Name()] {
		return true
	}
	if obj.Pkg() != nil && obj.Pkg().Path()+"."+obj.Name() == streamRead {
		return true
	}
	// ByteOrder method form: binary.LittleEndian.Uint64(...).
	if fn, ok := obj.(*types.Func); ok && fn.Type() != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type().String()
			if strings.Contains(recv, "encoding/binary.") && wireReadFuncs[obj.Name()] {
				return true
			}
			if cursorMethods[obj.Name()] && strings.TrimPrefix(recv, "*") == cursorType {
				return true
			}
		}
	}
	return false
}

// containsSource reports whether e contains a direct wire read.
func (st *taintState) containsSource(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && st.sourceCall(call) {
			found = true
		}
		return !found
	})
	return found
}

// dirtyIn returns a tainted-and-unchecked local referenced by e, nil
// if none. A direct source call inside e is reported via a synthetic
// unnamed object — callers treat non-nil as a finding.
func (st *taintState) dirtyIn(e ast.Expr) types.Object {
	var dirty types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if dirty != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := st.pkg.Info.Uses[id]; obj != nil && st.tainted[obj] && !st.checked[obj] {
				dirty = obj
			}
		}
		return dirty == nil
	})
	return dirty
}

// trackable limits taint to function-local integer-ish variables;
// struct fields (cursor offsets) and booleans/errors stay out.
func trackable(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	basic, ok := v.Type().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&types.IsInteger != 0
}

// assign propagates taint through x := expr / x = expr.
func (st *taintState) assign(n *ast.AssignStmt) {
	// Multi-value form: v, err := d.uvarint() — every integer LHS is
	// tainted by a source RHS.
	multiSource := len(n.Rhs) == 1 && len(n.Lhs) > 1 && st.containsSource(n.Rhs[0])
	for i, lhs := range n.Lhs {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := st.pkg.Info.Defs[id]
		if obj == nil {
			obj = st.pkg.Info.Uses[id]
		}
		if obj == nil || !trackable(obj) {
			continue
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		switch {
		case multiSource || st.containsSource(rhs):
			st.tainted[obj] = true
			delete(st.checked, obj)
		case st.dirtyIn(rhs) != nil:
			// Derived from an unchecked wire value: inherits the dirt.
			st.tainted[obj] = true
			delete(st.checked, obj)
		case usesObject(st.pkg.Info, rhs, st.tainted):
			// Derived only from already-checked wire values.
			st.tainted[obj] = true
			st.checked[obj] = true
		case n.Tok == token.ASSIGN:
			// Plain reassignment from clean data clears old taint.
			delete(st.tainted, obj)
			delete(st.checked, obj)
		}
	}
}

// markComparisons clears taint for every tainted local that an
// if-condition compares against anything.
func (st *taintState) markComparisons(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			for _, side := range [...]ast.Expr{be.X, be.Y} {
				ast.Inspect(side, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := st.pkg.Info.Uses[id]; obj != nil && st.tainted[obj] {
							st.checked[obj] = true
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// clearViaHelper treats passing a tainted value into a bounding helper
// (cap/check/valid/budget/clamp/min/bound in the name) as its check.
func (st *taintState) clearViaHelper(call *ast.CallExpr) {
	obj := calleeObj(st.pkg.Info, call)
	if obj == nil {
		return
	}
	name := strings.ToLower(obj.Name())
	clearing := false
	for _, frag := range clearingNames {
		if strings.Contains(name, frag) {
			clearing = true
			break
		}
	}
	if !clearing {
		return
	}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := st.pkg.Info.Uses[id]; o != nil && st.tainted[o] {
					st.checked[o] = true
				}
			}
			return true
		})
	}
}

// checkMake flags make() calls sized by unchecked wire values.
func (a AM002) checkMake(m *Module, st *taintState, call *ast.CallExpr, report func(token.Position, string)) {
	fn, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "make" {
		return
	}
	if _, isBuiltin := st.pkg.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return
	}
	for _, arg := range call.Args[1:] {
		if st.containsSource(arg) {
			report(m.Fset.Position(call.Pos()),
				"allocation sized directly by a wire read; bind it to a local and cap-check it first")
			continue
		}
		if obj := st.dirtyIn(arg); obj != nil {
			report(m.Fset.Position(call.Pos()), fmt.Sprintf(
				"allocation sized by wire-read value %s before any cap check", obj.Name()))
			st.checked[obj] = true // one finding per value
		}
	}
}

// checkLoopAppend flags for-loops bounded by an unchecked wire value
// whose body grows a slice — the incremental form of the oversized
// allocation.
func (a AM002) checkLoopAppend(m *Module, st *taintState, loop *ast.ForStmt, report func(token.Position, string)) {
	if loop.Cond == nil {
		return
	}
	be, ok := unparen(loop.Cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch be.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.NEQ:
	default:
		return
	}
	var bound types.Object
	for _, side := range [...]ast.Expr{be.X, be.Y} {
		if obj := st.dirtyIn(side); obj != nil {
			bound = obj
		}
	}
	if bound == nil {
		return
	}
	appends := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || appends {
			return !appends
		}
		if fn, ok := unparen(call.Fun).(*ast.Ident); ok && fn.Name == "append" {
			if _, isBuiltin := st.pkg.Info.Uses[fn].(*types.Builtin); isBuiltin {
				appends = true
			}
		}
		return !appends
	})
	if appends {
		report(m.Fset.Position(loop.Pos()), fmt.Sprintf(
			"loop appends up to wire-read value %s times without a cap check", bound.Name()))
		st.checked[bound] = true
	}
}
