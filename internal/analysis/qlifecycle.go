package analysis

import (
	"go/ast"
)

// QLifecycle requires every goroutine spawned in cluster-segment packages
// to have a reachable shutdown path. A goroutine whose body loops with
// `for {}` and no return or break inside can never be joined: Close hangs,
// tests leak OS threads, and the harness's per-run teardown stops being a
// barrier. Two idioms terminate cleanly and pass without annotation:
//
//   - `for range ch { ... }` — ends when the channel is closed; this is
//     the single-writer queue idiom (producer closes items, the writer
//     drains and signals done).
//   - a `for { select { ... } }` loop where some clause returns or breaks
//     out of the loop (a stop-channel case).
//
// Goroutine bodies without loops run to completion on their own and are
// always fine. The analyzer resolves `go f()` through same-package
// declarations, so a named worker function is held to the same rule as an
// inline literal.
var QLifecycle = &Analyzer{
	Name: "qlifecycle",
	Doc:  "require goroutines in cluster packages to have a reachable shutdown path (no unbreakable for{} loops)",
	Run:  runQLifecycle,
}

func runQLifecycle(pass *Pass) error {
	if !HasPathSegment(pass.Path, "cluster") {
		return nil
	}
	idx := indexFuncs(pass)
	for _, f := range pass.Files {
		if IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, name := goBody(pass, idx, g)
			if body == nil {
				return true // dynamic callee: cannot see the body
			}
			checkGoroutineBody(pass, g, body, name)
			return true
		})
	}
	return nil
}

// goBody resolves the spawned function's body: an inline literal, or a
// same-package declaration reached through the call.
func goBody(pass *Pass, idx funcIndex, g *ast.GoStmt) (*ast.BlockStmt, string) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body, "goroutine"
	}
	if obj := calleeObject(pass.TypesInfo, g.Call); obj != nil {
		if fd := idx[obj]; fd != nil {
			return fd.Body, obj.Name()
		}
	}
	return nil, ""
}

// checkGoroutineBody flags condition-less for-loops in the goroutine body
// that contain no way out: no return, no (unlabeled) break, no breaking
// labeled statement. `for range ch` is exempt — closing the channel ends
// it — and loops with a condition terminate when it goes false.
func checkGoroutineBody(pass *Pass, g *ast.GoStmt, body *ast.BlockStmt, name string) {
	walkSameFunc(body, func(n ast.Node) {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return
		}
		if loopHasExit(loop) {
			return
		}
		pass.Reportf(g.Pos(), "%s loops forever with no shutdown path: give the for{} a stop case (return/break on a closed channel) or drain a channel with for range so close() ends it", name)
	})
}

// loopHasExit reports whether the condition-less loop body contains a
// return, an unlabeled break at the loop's own level, or a labeled break
// (assumed to target an enclosing label — conservative in the loop's
// favor). Nested loops' own breaks do not count as exits of this loop.
func loopHasExit(loop *ast.ForStmt) bool {
	exit := false
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if exit || n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return // separate goroutine-independent scope
		case *ast.ReturnStmt:
			exit = true
			return
		case *ast.BranchStmt:
			if x.Tok.String() == "break" && (x.Label != nil || depth == 0) {
				exit = true
			}
			if x.Tok.String() == "goto" {
				// A goto can jump past the loop; give it the benefit of
				// the doubt rather than false-positive on state machines.
				exit = true
			}
			return
		case *ast.ForStmt:
			if n != loop {
				walkChildren(n, func(c ast.Node) { walk(c, depth+1) })
				return
			}
		case *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			// break inside these targets the inner statement, not the loop —
			// except select/switch don't consume break for our purposes when
			// labeled, which the Label check above already covers.
			walkChildren(n, func(c ast.Node) { walk(c, depth+1) })
			return
		}
		walkChildren(n, func(c ast.Node) { walk(c, depth) })
	}
	walkChildren(loop, func(c ast.Node) { walk(c, 0) })
	return exit
}

// walkChildren visits n's direct children once each.
func walkChildren(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}
