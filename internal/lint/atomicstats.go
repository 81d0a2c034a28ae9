package lint

import (
	"go/ast"
	"go/types"
)

// AtomicStats enforces the metrics counter contract: every exported
// counter field of a `*Stats` struct in the metrics package must be an
// atomic type (counters are written from the ingestion goroutine, the
// checkpoint saver and HTTP handlers concurrently, and read lock-free by /v1/stats
// and /metrics), and call sites everywhere must access those fields only
// through their atomic method sets. Point-in-time `*Snapshot` structs are
// plain by design and exempt.
//
// Two rules:
//
//  1. declaration (metrics package only): a plain integer field in a
//     *Stats struct is flagged — use atomic.Int64 and friends;
//  2. use (every package): a *Stats atomic field used as a value (copied,
//     compared, passed) rather than as the receiver of an atomic method
//     call or the operand of & is flagged, as is any direct read/write of
//     a plain integer *Stats field outside a sync/atomic call.
var AtomicStats = &Analyzer{
	Name: "atomicstats",
	Doc: "metrics *Stats counter fields must be atomic types and accessed atomically " +
		"(concurrent writers, lock-free readers)",
	Scope: func(string) bool { return true },
	Run:   runAtomicStats,
}

func runAtomicStats(pass *Pass) {
	if pass.Pkg.Types.Name() == "metrics" {
		checkStatsDecls(pass)
	}
	checkStatsUses(pass)
}

// checkStatsDecls flags non-atomic integer counter fields in *Stats
// structs of the metrics package itself.
func checkStatsDecls(pass *Pass) {
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !isStatsName(ts.Name.Name) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				t := pass.Pkg.Info.TypeOf(field.Type)
				if t == nil || !isPlainInteger(t) {
					continue
				}
				for _, name := range field.Names {
					if !name.IsExported() {
						continue
					}
					pass.Reportf(name.Pos(), "counter field %s.%s is a plain %s; use an atomic type (concurrent writers, lock-free readers)",
						ts.Name.Name, name.Name, t.String())
				}
			}
			return true
		})
	}
}

// checkStatsUses flags value (non-atomic) uses of *Stats counter fields
// anywhere in the analyzed package.
func checkStatsUses(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Syntax {
		walkWithStack(f, func(n ast.Node, stack []ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			selection, ok := info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return
			}
			recv := namedType(selection.Recv())
			if recv == nil || !isStatsName(recv.Obj().Name()) {
				return
			}
			if pkg := recv.Obj().Pkg(); pkg == nil || pkg.Name() != "metrics" {
				return
			}
			parent, grand := parents(stack)
			if isAtomicNamed(selection.Type()) {
				// Atomic field: legal uses are s.F.Method(...) and &s.F.
				if p, ok := parent.(*ast.SelectorExpr); ok && p.X == sel {
					return // receiver of a further selection (method call)
				}
				if u, ok := parent.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
					return
				}
				pass.Reportf(sel.Pos(), "atomic counter %s.%s used as a value; call its atomic methods (Load/Store/Add) instead of copying it",
					recv.Obj().Name(), selection.Obj().Name())
				return
			}
			if !isPlainInteger(selection.Type()) {
				return
			}
			// Plain integer counter (already flagged at declaration inside
			// metrics): any direct use outside &field-into-sync/atomic is a
			// racy read or lost-update write.
			if u, ok := parent.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
				if call, ok := grand.(*ast.CallExpr); ok && isSyncAtomicCall(info, call) {
					return
				}
			}
			pass.Reportf(sel.Pos(), "non-atomic access to counter field %s.%s; counters are updated concurrently",
				recv.Obj().Name(), selection.Obj().Name())
		})
	}
}

// isStatsName matches the counter-struct naming convention without
// catching the point-in-time Snapshot types.
func isStatsName(name string) bool {
	return len(name) > len("Stats") && name[len(name)-len("Stats"):] == "Stats"
}

func isPlainInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isAtomicNamed reports whether t is one of sync/atomic's value types.
func isAtomicNamed(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// isSyncAtomicCall reports whether call invokes a sync/atomic function.
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObj(info, call).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// walkWithStack visits every node with the stack of its ancestors
// (outermost first, not including the node itself).
func walkWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// parents returns the visited node's nearest non-parenthesis ancestor and
// that ancestor's own nearest non-parenthesis ancestor.
func parents(stack []ast.Node) (parent, grand ast.Node) {
	i := len(stack) - 1
	skipParens := func() {
		for i >= 0 {
			if _, ok := stack[i].(*ast.ParenExpr); !ok {
				return
			}
			i--
		}
	}
	skipParens()
	if i >= 0 {
		parent = stack[i]
		i--
	}
	skipParens()
	if i >= 0 {
		grand = stack[i]
	}
	return parent, grand
}
