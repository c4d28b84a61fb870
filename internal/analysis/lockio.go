package analysis

import (
	"go/ast"
)

// LockIO forbids blocking I/O while holding a sync.Mutex/RWMutex in
// cluster-segment packages: connection reads/writes (net.Conn, io.Writer,
// wire.WriteFrame/ReadFrame*/ReadBody), channel sends (except under a
// select with a default clause, which cannot block), and time.Sleep. The
// referee's hot path is the motivating perimeter: recordLocked does pure
// bookkeeping under rf.mu while decode and transport writes stay outside
// the critical section — a blocking call under that mutex stalls every
// connection handler at once.
// The analyzer tracks lock regions linearly per statement list: a region
// opens at mu.Lock()/mu.RLock(), closes at the matching Unlock in the same
// list, and `defer mu.Unlock()` holds to the end of the function. Nested
// branches inherit (a copy of) the outer state, so an early
// unlock-and-return inside an if releases the region for that branch only.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "forbid blocking I/O (conn writes, channel sends, sleeps) while holding a sync mutex in cluster packages",
	Run:  runLockIO,
}

func runLockIO(pass *Pass) error {
	if !HasPathSegment(pass.Path, "cluster") {
		return nil
	}
	for _, f := range pass.Files {
		if IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				scanLockRegion(pass, body.List, map[string]bool{})
			}
			return true
		})
	}
	return nil
}

// scanLockRegion walks one statement list tracking which mutexes are held.
// held maps the mutex's receiver expression (printed) to true; callers
// pass a copy when descending into branches so an unlock on one path does
// not release the others.
func scanLockRegion(pass *Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if key, op := lockOp(pass, st.X); key != "" {
				switch op {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				continue
			}
			if len(held) > 0 {
				checkBlocking(pass, st, held)
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() — the lock stays held for the remainder of
			// the function; nothing to do (Lock already recorded it).
			if len(held) > 0 {
				checkBlocking(pass, st.Call, held)
			}
		case *ast.BlockStmt:
			scanLockRegion(pass, st.List, copyHeld(held))
		case *ast.IfStmt:
			if len(held) > 0 && st.Cond != nil {
				checkBlocking(pass, st.Cond, held)
			}
			scanLockRegion(pass, st.Body.List, copyHeld(held))
			if st.Else != nil {
				scanLockRegion(pass, []ast.Stmt{st.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			scanLockRegion(pass, st.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			scanLockRegion(pass, st.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, cc := range st.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					scanLockRegion(pass, c.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range st.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					scanLockRegion(pass, c.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			checkSelect(pass, st, held)
		default:
			if len(held) > 0 {
				checkBlocking(pass, s, held)
			}
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// lockOp classifies expr as a mutex Lock/RLock/Unlock/RUnlock call and
// returns the mutex key (the printed receiver expression) and the method.
func lockOp(pass *Pass, expr ast.Expr) (key, op string) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !(NamedFrom(tv.Type, "sync", "Mutex") || NamedFrom(tv.Type, "sync", "RWMutex")) {
		return "", ""
	}
	return exprKey(sel.X), sel.Sel.Name
}

// exprKey renders a receiver expression to a comparable key (x.mu, q.mu).
func exprKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return exprKey(x.X)
	default:
		return "<mutex>"
	}
}

// checkBlocking inspects node's subtree (excluding nested function
// literals and selects, which checkSelect handles) for blocking operations
// and reports each against the held mutexes.
func checkBlocking(pass *Pass, node ast.Node, held map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // runs later, not under this lock
		case *ast.SelectStmt:
			checkSelect(pass, x, held)
			return false
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "channel send while holding %s blocks every path through the critical section — buffer the value and send after Unlock", heldName(held))
			return true
		case *ast.CallExpr:
			if msg := blockingCall(pass, x); msg != "" {
				pass.Reportf(x.Pos(), "%s while holding %s: keep blocking I/O outside the critical section (decode outside the lock, record inside — the recordLocked pattern)", msg, heldName(held))
			}
		}
		return true
	})
}

// checkSelect handles a select statement under (possibly) held locks: with
// a default clause the communications cannot block and only the clause
// bodies are scanned; without one, sends in the comm positions block.
func checkSelect(pass *Pass, sel *ast.SelectStmt, held map[string]bool) {
	hasDefault := false
	for _, cc := range sel.Body.List {
		if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
			hasDefault = true
		}
	}
	for _, cc := range sel.Body.List {
		c, ok := cc.(*ast.CommClause)
		if !ok {
			continue
		}
		if c.Comm != nil && !hasDefault && len(held) > 0 {
			if send, isSend := c.Comm.(*ast.SendStmt); isSend {
				pass.Reportf(send.Pos(), "channel send in a select without default while holding %s can block the critical section — add a default or send after Unlock", heldName(held))
			}
		}
		scanLockRegion(pass, c.Body, copyHeld(held))
	}
}

// blockingCall classifies call as blocking I/O: conn/writer reads+writes,
// wire codec stream calls, time.Sleep.
func blockingCall(pass *Pass, call *ast.CallExpr) string {
	if CalleeIn(call, pass.TypesInfo, "time") == "Sleep" {
		return "time.Sleep"
	}
	switch name := CalleeIn(call, pass.TypesInfo, "wire"); name {
	case "WriteFrame":
		return "wire." + name
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return ""
	}
	t := tv.Type
	switch name {
	case "Read", "Write", "ReadFrom", "WriteTo":
		if NamedFrom(t, "net", "Conn") || NamedFrom(t, "net", "TCPConn") ||
			NamedFrom(t, "io", "Writer") || NamedFrom(t, "io", "Reader") {
			return "conn " + name
		}
	case "ReadFrame", "ReadBody":
		if NamedFrom(t, "wire", "Reader") {
			return "wire.Reader." + name
		}
	}
	return ""
}

// heldName renders the held mutex set for a message, deterministically.
func heldName(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k) //unifvet:allow maporder names are sorted below before rendering
	}
	if len(names) == 1 {
		return names[0]
	}
	// Multiple mutexes held: sort for deterministic output.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	out := names[0]
	for _, n := range names[1:] {
		out += "+" + n
	}
	return out
}
