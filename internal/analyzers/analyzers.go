// Package analyzers is the project-invariant static-analysis suite
// behind cmd/acutemon-vet. Each analyzer mechanically enforces a rule
// this codebase depends on for correctness but that go vet cannot
// know about — invariants that previously lived in prose comments and
// regressed silently when a hot path was touched:
//
//	AM001 sim-determinism   sim paths must stay bit-deterministic
//	AM002 decode-bounds     wire-derived sizes need a cap check first
//	AM003 lock-discipline   never nest two shard/stripe locks
//	AM004 atomic-consistency no plain access to atomically-used fields
//	AM005 context-first     exported blocking APIs take ctx first
//	AM006 test-only-export  exported names under internal/ have a non-test use
//	AM007 test-only-field   exported sim-model fields have a non-test read
//
// The suite is stdlib-only (go/ast, go/parser, go/types); packages are
// loaded via `go list -export` so type information is exact, not
// syntactic. A finding is suppressed by an inline comment on the same
// line or the line above:
//
//	//acutemon:ignore AM001 live path timestamps are wall-clock by design
//
// The code and a non-empty reason are both mandatory; a malformed
// suppression, or one that waives no finding, is itself reported as
// AM000 and cannot be suppressed.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line(:col) output.
type Diagnostic struct {
	Code       string `json:"code"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	// Reason carries the suppression's justification when Suppressed.
	Reason string `json:"reason,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Code, d.Message)
}

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is every loaded package, sharing one FileSet. Analyzers see
// the whole module at once so cross-package facts (AM004's atomic-use
// set) need no extra plumbing.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Users is every package whose non-test code counts as a use of a
	// name (AM006) or a read of a field (AM007): the whole module and
	// its perfbench harness, however narrow the patterns that chose
	// Pkgs. A fixture is its own user.
	Users []*Package
}

// Analyzer is one invariant check over a whole module.
type Analyzer interface {
	// Code is the stable diagnostic code ("AM001"); it is what
	// suppression comments name.
	Code() string
	// Name is the short human label ("sim-determinism").
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// Run reports every violation found in m.
	Run(m *Module, report func(pos token.Position, msg string))
}

// Suite returns the full analyzer set in diagnostic-code order.
func Suite() []Analyzer {
	return []Analyzer{
		AM001{},
		AM002{},
		AM003{},
		AM004{},
		AM005{},
		AM006{},
		AM007{},
	}
}

// Run executes every analyzer over m, applies suppression comments,
// and returns all diagnostics (suppressed ones flagged; malformed
// suppressions, and waivers of a code in suite that waive nothing, as
// AM000) sorted by position then code.
func Run(m *Module, suite []Analyzer) []Diagnostic {
	sups := collectSuppressions(m)
	var out []Diagnostic
	ran := map[string]bool{}
	for _, a := range suite {
		code := a.Code()
		ran[code] = true
		a.Run(m, func(pos token.Position, msg string) {
			d := Diagnostic{
				Code:    code,
				File:    pos.Filename,
				Line:    pos.Line,
				Col:     pos.Column,
				Message: msg,
			}
			if reason, ok := sups.match(code, pos); ok {
				d.Suppressed = true
				d.Reason = reason
			}
			out = append(out, d)
		})
	}
	out = append(out, sups.malformed...)
	out = append(out, sups.stale(ran)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
	return out
}

// inScope reports whether pkgPath is covered by any of the given
// import-path prefixes (exact match or subpackage).
func inScope(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// usesObject reports whether any identifier inside e resolves to an
// object in objs.
func usesObject(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && objs[obj] {
			found = true
		}
		return !found
	})
	return found
}

// unparen strips any parenthesis layers (ast.Unparen needs go 1.22;
// the module floor is 1.21).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeObj resolves a call's callee to its types object (function or
// method), or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function
// pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
