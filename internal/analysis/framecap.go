package analysis

import (
	"go/ast"
	"strings"
)

// FrameCap enforces the wire-protocol encoding discipline in the cluster
// runtime: every []byte written to a connection (a Write on a
// net.Conn/io.Writer) must have been produced by a wire-package constructor
// (wire.AppendSession, AppendPartialSession, AppendSessionReport,
// BatchEncoder.AppendSession). Those constructors are where the typed
// per-frame-type size caps (wire.FrameCap, the cluster analogue of the
// CONGEST per-edge bandwidth limit) are enforced; a hand-rolled byte slice
// pushed at the transport bypasses the cap and the canonical encoding
// both. Packages with a "wire" path segment are exempt — they implement
// the constructors — as are _test.go files.
var FrameCap = &Analyzer{
	Name: "framecap",
	Doc:  "require bytes written to conns in cluster packages to come from wire.Append* constructors",
	Run:  runFrameCap,
}

const (
	frameHandRolled = "hand-rolled frame bytes reach the connection write: build frames with wire.AppendSession/AppendPartialSession/BatchEncoder.AppendSession so the per-type frame cap (wire.FrameCap) applies"
	frameUnknown    = "byte slice of unknown origin reaches the connection write: frames must flow through wire.AppendSession/AppendPartialSession/BatchEncoder.AppendSession so the per-type frame cap (wire.FrameCap) applies"
)

func runFrameCap(pass *Pass) error {
	if !HasPathSegment(pass.Path, "cluster") || HasPathSegment(pass.Path, "wire") {
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
				checkFrameCapFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

// checkFrameCapFunc scans one function body for connection writes and
// traces each write's byte-slice argument back to its producing expression.
func checkFrameCapFunc(pass *Pass, body *ast.BlockStmt) {
	o := trackOrigins(pass.TypesInfo, body)
	walkSameFunc(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		arg := frameSinkArg(pass, call)
		if arg == nil {
			return
		}
		resolved := o.resolve(arg)
		if len(resolved) == 0 {
			pass.Reportf(arg.Pos(), frameUnknown)
			return
		}
		for _, origin := range resolved {
			origin = ast.Unparen(origin)
			switch x := origin.(type) {
			case *ast.CallExpr:
				if !frameConstructor(pass, x) {
					pass.Reportf(origin.Pos(), frameHandRolled)
				}
			case *ast.CompositeLit, *ast.BasicLit:
				pass.Reportf(origin.Pos(), frameHandRolled)
			default:
				pass.Reportf(origin.Pos(), frameUnknown)
			}
		}
	})
}

// frameSinkArg returns call's byte-slice argument when call is a Write on
// a net.Conn, *net.TCPConn or io.Writer receiver, and nil otherwise.
func frameSinkArg(pass *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Write" || len(call.Args) != 1 {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !(NamedFrom(tv.Type, "net", "Conn") || NamedFrom(tv.Type, "io", "Writer") || NamedFrom(tv.Type, "net", "TCPConn")) {
		return nil
	}
	if !byteSliceType(pass.TypesInfo.Types[call.Args[0]].Type) {
		return nil
	}
	return call.Args[0]
}

// frameConstructor reports whether call targets a wire-segment package
// function or method whose name starts with Append — the FrameCap-checked
// constructors.
func frameConstructor(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeObject(pass.TypesInfo, call)
	return objPkgSegment(obj, "wire") && strings.HasPrefix(obj.Name(), "Append")
}
