package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroScopes names the packages whose goroutines run on (or under) the
// request path: the serving tier plus core, whose stage goroutines every
// request borrows. A goroutine spawned here without a provable termination
// edge accumulates once per request — the million-user fleet leaks it a
// million times.
var goroScopes = []string{
	"anytime/internal/serve",
	"anytime/internal/cluster",
	"anytime/internal/daemon",
	"anytime/internal/reqtrace",
	"anytime/internal/core",
}

// GoroLeakAnalyzer convicts fire-and-forget goroutines in the request-path
// packages: every `go` statement must carry one of the provable
// termination edges the runtime actually uses —
//
//   - joined: the body calls Done on a sync.WaitGroup that the same
//     package Waits on (the health sweep, the stage fan-out);
//   - ctx-bounded: the body receives from a context's Done channel, or
//     every loop in it makes a call that takes a context and has a return
//     path (the WaitNewer watcher loops);
//   - stop-channel: the body selects on a `chan struct{}` stop/done
//     channel or a timer channel (the health-check loop, StopAfter);
//   - bounded handshake: a loop-free body whose only blocking sends go to
//     channels created with non-zero capacity in the spawning function
//     (the hedge race's results channel).
//
// Everything else is a leak conviction. Goroutines provably terminating by
// protocol the analyzer cannot see get a justified //lint:ignore.
var GoroLeakAnalyzer = &Analyzer{
	Name: "goroleak",
	Doc: "report request-path goroutines without a provable termination " +
		"edge (ctx.Done select, WaitGroup join, stop channel, or bounded " +
		"handshake)",
	Run: runGoroLeak,
}

func runGoroLeak(pass *Pass) (interface{}, error) {
	if !inScopes(pass.Pkg, goroScopes) {
		return nil, nil
	}
	info := pass.TypesInfo

	// Package-wide context: which WaitGroup objects are ever Waited on.
	waited := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeMethod(info, call); fn != nil && fn.Name() == "Wait" && isWaitGroupMethod(fn) {
					if obj := receiverObject(info, call); obj != nil {
						waited[obj] = true
					}
				}
			}
			return true
		})
	}

	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, g, waited)
			return true
		})
	}
	return nil, nil
}

// isWaitGroupMethod reports whether fn is a method of sync.WaitGroup.
func isWaitGroupMethod(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	n, ok := deref(recv.Type()).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func isPositiveConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() != "0"
}

// spawnSite is the context a go statement's body is judged in.
type spawnSite struct {
	pass *Pass
	g    *ast.GoStmt
	// body is the spawned code: the literal's body, or the resolved
	// declaration's body for `go obj.method(...)`.
	body *ast.BlockStmt
	// encl is the function declaration containing the go statement.
	encl *ast.FuncDecl
	// waited: the package-wide set of WaitGroups that are Waited on.
	waited map[types.Object]bool
}

func checkGoStmt(pass *Pass, g *ast.GoStmt, waited map[types.Object]bool) {
	info := pass.TypesInfo
	site := spawnSite{pass: pass, g: g, waited: waited, encl: enclosingDecl(pass, g)}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		site.body = fun.Body
	default:
		fn := calleeFunc(info, g.Call)
		if fn == nil {
			pass.Reportf(g.Pos(), "goroutine spawns a dynamic function value: no termination edge is provable; name the function or select on ctx.Done inside it")
			return
		}
		decl := funcDeclFor(pass.Files, info, fn)
		if decl == nil || decl.Body == nil {
			// Spawning an out-of-package function: check the terminates fact
			// exported when that package was analyzed.
			if _, ok := passFacts(pass).Get(fn, "goroleak.terminates"); ok {
				return
			}
			pass.Reportf(g.Pos(),
				"goroutine runs %s, declared outside this package with no exported termination fact: wrap it in a supervised loop or justify with //lint:ignore", fn.Name())
			return
		}
		site.body = decl.Body
	}
	if reason := site.terminates(); reason == "" {
		pass.Reportf(g.Pos(),
			"fire-and-forget goroutine: no provable termination edge (want a ctx.Done select, a WaitGroup joined in this package, a stop-channel select, or a bounded channel handshake)")
	}
}

// terminates returns the name of the first termination edge proved for the
// spawned body, or "" when none holds.
func (s *spawnSite) terminates() string {
	if s.joined() {
		return "joined"
	}
	if s.ctxDone() {
		return "ctxdone"
	}
	if s.stopChannel() {
		return "stopchan"
	}
	if s.ctxBoundedLoops() {
		return "ctxcall"
	}
	if s.boundedHandshake() {
		return "bounded"
	}
	return ""
}

// joined: the body calls wg.Done() (usually deferred) on a WaitGroup that
// this package Waits on. The join point may live in another goroutine of
// the same function (the automaton's finisher) or another method (the
// pool), so the Wait set is package-wide.
func (s *spawnSite) joined() bool {
	info := s.pass.TypesInfo
	found := false
	ast.Inspect(s.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if fn := calleeMethod(info, call); fn != nil && fn.Name() == "Done" && isWaitGroupMethod(fn) {
			if obj := receiverObject(info, call); obj != nil && s.waited[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// ctxDone: the body receives from some context's Done channel (directly or
// in a select). Whoever owns that context can end this goroutine.
func (s *spawnSite) ctxDone() bool {
	info := s.pass.TypesInfo
	found := false
	ast.Inspect(s.body, func(n ast.Node) bool {
		if found {
			return false
		}
		ue, ok := n.(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			return true
		}
		if call, ok := ast.Unparen(ue.X).(*ast.CallExpr); ok {
			if fn := calleeMethod(info, call); fn != nil && fn.Name() == "Done" {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if tv, ok := info.Types[sel.X]; ok && isContextType(tv.Type) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// stopChannel: the body selects on (or receives from) a `chan struct{}`
// stop/done channel. Closing the channel releases the goroutine; the close
// lives with the owner's Stop. Timer channels deliberately don't qualify:
// `for { <-t.C }` wakes forever, it doesn't terminate.
func (s *spawnSite) stopChannel() bool {
	info := s.pass.TypesInfo
	found := false
	ast.Inspect(s.body, func(n ast.Node) bool {
		if found {
			return false
		}
		ue, ok := n.(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			return true
		}
		tv, ok := info.Types[ue.X]
		if !ok {
			return true
		}
		ch, ok := types.Unalias(tv.Type).Underlying().(*types.Chan)
		if !ok {
			return true
		}
		if isEmptyStruct(ch.Elem()) {
			found = true
		}
		return !found
	})
	return found
}

// ctxBoundedLoops: every for loop in the body makes a call that receives a
// context (so cancelling that context unblocks it) and the body has a
// return path; loop-free bodies don't qualify here (boundedHandshake
// covers them).
func (s *spawnSite) ctxBoundedLoops() bool {
	info := s.pass.TypesInfo
	loops := 0
	bounded := 0
	hasReturn := false
	ast.Inspect(s.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			hasReturn = true
		case *ast.ForStmt:
			loops++
			if loopHasCtxCall(info, n.Body) {
				bounded++
			}
		case *ast.RangeStmt:
			loops++
			// Ranges over slices/maps/ints are bounded by their operand;
			// ranging a channel blocks until someone closes it, which is
			// exactly the edge this classifier cannot see here.
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := types.Unalias(tv.Type).Underlying().(*types.Chan); !isChan {
					bounded++
				}
			}
		}
		return true
	})
	return loops > 0 && loops == bounded && hasReturn
}

func loopHasCtxCall(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && isContextType(tv.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

// boundedHandshake: a loop-free body whose channel sends all target
// buffered channels created in the spawning function, and whose receives
// (if any) are stop-channel/timer shaped (checked above). Such a body runs
// to completion as soon as its calls return — nothing can block it
// indefinitely on the handshake itself.
func (s *spawnSite) boundedHandshake() bool {
	info := s.pass.TypesInfo
	// Channels made buffered in the enclosing function.
	buffered := make(map[types.Object]bool)
	if s.encl != nil {
		ast.Inspect(s.encl, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, lhs := range assign.Lhs {
				call, ok := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr)
				if !ok || len(call.Args) < 2 {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					continue
				}
				if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
					continue
				}
				if !isPositiveConst(info, call.Args[1]) {
					continue
				}
				if lid, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := info.Defs[lid]; obj != nil {
						buffered[obj] = true
					} else if obj := info.Uses[lid]; obj != nil {
						buffered[obj] = true
					}
				}
			}
			return true
		})
	}
	ok := true
	ast.Inspect(s.body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			ok = false
		case *ast.SendStmt:
			target := ast.Unparen(n.Chan)
			id, isIdent := target.(*ast.Ident)
			if !isIdent || !buffered[info.Uses[id]] {
				ok = false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ok = false // a plain receive can block forever
			}
		}
		return ok
	})
	return ok
}

func isEmptyStruct(t types.Type) bool {
	st, ok := types.Unalias(t).Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// enclosingDecl finds the function declaration containing n.
func enclosingDecl(pass *Pass, n ast.Node) *ast.FuncDecl {
	for _, f := range pass.Files {
		if n.Pos() < f.Pos() || n.Pos() > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= n.Pos() && n.Pos() <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// passFacts returns the pass's fact store, never nil.
func passFacts(pass *Pass) *FactStore {
	if pass.Facts == nil {
		pass.Facts = NewFactStore()
	}
	return pass.Facts
}
