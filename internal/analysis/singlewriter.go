package analysis

import (
	"go/ast"
	"go/types"
)

// SingleWriterAnalyzer enforces the paper's Property 2 (§III-A): each
// output buffer has exactly one writing stage. The wait-free Buffer makes a
// second writer silent rather than crashy — concurrent Publish calls race
// the version counter and the snapshot arena without tripping anything the
// race detector can't see in a lucky schedule — so the analyzer convicts
// the spawn structure itself:
//
//   - the same buffer published both from a spawned goroutine and from its
//     owning goroutine (or from two distinct go statements);
//   - Publish inside a goroutine spawned in a loop over a captured buffer
//     (the N-workers-one-writer fan-out, where every iteration spawns
//     another writer).
//
// Workers that compute into private state while a coordinator publishes —
// the fan-out/fan-in coordinator shape — pass: only the publish sites'
// goroutine contexts matter.
var SingleWriterAnalyzer = &Analyzer{
	Name: "singlewriter",
	Doc: "report output buffers published from more than one goroutine " +
		"(anytime automaton Property 2: single writer per buffer)",
	Run: runSingleWriter,
}

// publishSite is one Publish/PublishFinal call with its goroutine context.
type publishSite struct {
	call *ast.CallExpr
	// spawn is the go statement whose function literal (transitively)
	// encloses the call, or nil when the call runs on the spawning
	// function's own goroutine.
	spawn *ast.GoStmt
	// looped reports whether spawn itself sits inside a for/range loop, so
	// each iteration starts another writer.
	looped bool
	// captured reports whether the buffer is a free variable of the spawned
	// function (not declared inside it), i.e. iterations share one buffer.
	captured bool
}

func runSingleWriter(pass *Pass) (interface{}, error) {
	// Group publish sites per buffer object within each top-level function:
	// goroutine structure is a per-function property, and field objects
	// shared across functions would otherwise conflate one stage's
	// publish-loop with another function's.
	walkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		decl, ok := n.(*ast.FuncDecl)
		if !ok || decl.Body == nil {
			return true
		}
		sites := make(map[types.Object][]publishSite)
		walkStack([]*ast.File{wrapDecl(decl)}, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isBufferMethod(pass.TypesInfo, call, "Publish", "PublishFinal") {
				return true
			}
			obj := receiverObject(pass.TypesInfo, call)
			if obj == nil {
				return true
			}
			site := classifySpawn(call, stack, obj, pass.TypesInfo)
			sites[obj] = append(sites[obj], site)
			return true
		})
		reportSingleWriter(pass, sites)
		return true
	})
	return nil, nil
}

// wrapDecl packages a single declaration as a file so walkStack can
// traverse it with a stack rooted at the declaration.
func wrapDecl(decl *ast.FuncDecl) *ast.File {
	return &ast.File{Name: ast.NewIdent("_"), Decls: []ast.Decl{decl}}
}

// classifySpawn determines the goroutine context of a publish call from its
// ancestor stack: the innermost go statement reached by crossing at least
// one function literal (a call in a go statement's argument list runs
// synchronously in the spawner and does not count).
func classifySpawn(call *ast.CallExpr, stack []ast.Node, obj types.Object, info *types.Info) publishSite {
	site := publishSite{call: call}
	crossedFuncLit := false
	var innerFn *ast.FuncLit
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			crossedFuncLit = true
			if innerFn == nil {
				innerFn = n
			}
		case *ast.GoStmt:
			if !crossedFuncLit {
				continue
			}
			site.spawn = n
			for j := i - 1; j >= 0; j-- {
				switch stack[j].(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					site.looped = true
				case *ast.FuncDecl, *ast.FuncLit:
					j = -1 // loops outside the enclosing function don't spawn this go statement repeatedly
				}
			}
			site.captured = obj.Pos() < n.Pos() || obj.Pos() > n.End()
			return site
		case *ast.FuncDecl:
			return site
		}
	}
	return site
}

func reportSingleWriter(pass *Pass, sites map[types.Object][]publishSite) {
	for obj, list := range sites {
		// Distinct goroutine contexts: nil (owner) plus each go statement.
		spawns := make(map[*ast.GoStmt]bool)
		owner := false
		for _, s := range list {
			if s.spawn == nil {
				owner = true
			} else {
				spawns[s.spawn] = true
			}
		}
		multi := len(spawns) >= 2 || (len(spawns) >= 1 && owner)
		for _, s := range list {
			switch {
			case s.spawn != nil && multi:
				pass.Reportf(s.call.Pos(),
					"buffer %q is published from multiple goroutines (single-writer Property 2): this go statement races the other publish sites in %s",
					obj.Name(), funcName(pass, s.call))
			case s.spawn != nil && s.looped && s.captured:
				pass.Reportf(s.call.Pos(),
					"buffer %q is published from a goroutine spawned in a loop: every iteration starts another writer (single-writer Property 2)",
					obj.Name())
			}
		}
	}
}

// funcName names the function declaration enclosing pos, for messages.
func funcName(pass *Pass, n ast.Node) string {
	for _, f := range pass.Files {
		if n.Pos() < f.Pos() || n.Pos() > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= n.Pos() && n.Pos() <= fd.End() {
				return fd.Name.Name
			}
		}
	}
	return "this function"
}
