package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HookBarrier flags lifecycle-hook invocations (calls through func-typed
// fields of a struct named Hooks) from functions reachable outside the
// bin-close/flush barrier path. Hooks run synchronously on the ingestion
// goroutine at bin boundaries — the only points where outage state is
// allowed to change and where subscribers (event bus, store WAL, read
// snapshots) are guaranteed a consistent view. A hook fired from any other
// path publishes state mid-bin, which makes the published event sequence
// depend on call timing instead of the stream.
//
// The barrier roots — the functions from which hook firing is legitimate,
// directly or transitively — are the bin-close sequence and the stream
// flush: closeBinOver, Flush, finishProbes. The analyzer builds the
// package's static call graph (calls through stored function values are
// invisible — an under-approximation, so keep hook plumbing as direct
// calls) and reports any hook call whose firing function is transitively
// reachable from an exported non-root function without passing a root.
var HookBarrier = &Analyzer{
	Name: "hookbarrier",
	Doc: "Hooks.* callbacks may only fire on the bin-close/flush path " +
		"(closeBinOver/Flush/finishProbes and their exclusive callees)",
	Scope: scopePaths("kepler/internal/core"),
	Run:   runHookBarrier,
}

// barrierRoots are the functions that anchor the legitimate hook-firing
// path. Callers of a root are never at fault: the root is the barrier.
var barrierRoots = map[string]bool{
	"closeBinOver": true,
	"Flush":        true,
	"finishProbes": true,
}

func runHookBarrier(pass *Pass) {
	decls := funcDecls(pass.Pkg)

	type funcInfo struct {
		obj       *types.Func
		hookCalls []token.Pos
	}
	var funcs []*funcInfo
	callers := make(map[*types.Func][]*types.Func)
	byObj := make(map[*types.Func]*funcInfo)

	// Deterministic walk order: declaration order per file, files as listed.
	var objs []*types.Func
	for _, f := range pass.Pkg.Syntax {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					objs = append(objs, obj)
				}
			}
		}
	}

	for _, obj := range objs {
		fd := decls[obj]
		fi := &funcInfo{obj: obj}
		byObj[obj] = fi
		funcs = append(funcs, fi)
		for callee := range localCallees(pass.Pkg, fd, decls) {
			callers[callee] = append(callers[callee], obj)
		}
		if fd.Body != nil {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isHookFieldCall(pass.Pkg.Info, call) {
					fi.hookCalls = append(fi.hookCalls, call.Pos())
				}
				return true
			})
		}
	}

	for _, fi := range funcs {
		if len(fi.hookCalls) == 0 || barrierRoots[fi.obj.Name()] {
			continue
		}
		if bad := escapesBarrier(fi.obj, callers); bad != nil {
			for _, pos := range fi.hookCalls {
				pass.Reportf(pos, "hook fired in %s, which is reachable from %s outside the bin-close/flush barrier path",
					fi.obj.Name(), bad.Name())
			}
		}
	}
}

// escapesBarrier climbs the caller graph from fn, stopping at barrier
// roots, and returns an exported non-root function that can reach fn — the
// witness that fn's hooks can fire off the barrier — or nil if every chain
// is absorbed by a root.
func escapesBarrier(fn *types.Func, callers map[*types.Func][]*types.Func) *types.Func {
	seen := map[*types.Func]bool{fn: true}
	queue := []*types.Func{fn}
	var witnesses []*types.Func
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.Exported() && !barrierRoots[cur.Name()] {
			witnesses = append(witnesses, cur)
			continue
		}
		for _, c := range callers[cur] {
			if seen[c] || barrierRoots[c.Name()] {
				continue
			}
			seen[c] = true
			queue = append(queue, c)
		}
	}
	if len(witnesses) == 0 {
		return nil
	}
	sort.Slice(witnesses, func(i, j int) bool { return witnesses[i].Name() < witnesses[j].Name() })
	return witnesses[0]
}
