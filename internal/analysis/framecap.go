package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// FrameCap enforces the wire-protocol encoding discipline in the cluster
// runtime: every []byte that reaches a connection — a Write on a
// net.Conn/io.Writer, or a send/Enqueue into a send queue — must have been
// produced by a wire-package constructor (wire.AppendSession,
// AppendPartialSession, AppendSessionReport, BatchEncoder.AppendSession).
// Those constructors are where the typed per-frame-type size caps
// (wire.FrameCap, the cluster analogue of the CONGEST per-edge bandwidth
// limit) are enforced; a hand-rolled byte slice pushed at the transport
// bypasses the cap and the canonical encoding both. Packages with a
// "wire" path segment are exempt — they implement the constructors — as
// are _test.go files.
var FrameCap = &Analyzer{
	Name: "framecap",
	Doc:  "require bytes written to conns/send queues in cluster packages to come from wire.Append* constructors",
	Run:  runFrameCap,
}

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

// checkFrameCapFunc scans one function body for transport sinks and traces
// each sink's byte-slice argument back to its producing expression.
func checkFrameCapFunc(pass *Pass, body *ast.BlockStmt) {
	o := trackOrigins(pass.TypesInfo, body)
	walkSameFunc(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		arg, sink := frameSinkArg(pass, call)
		if arg == nil {
			return
		}
		resolved := o.resolve(arg)
		if len(resolved) == 0 {
			pass.Reportf(arg.Pos(), "byte slice of unknown origin reaches %s: frames must flow through wire.AppendSession/AppendPartialSession/BatchEncoder.AppendSession so the per-type frame cap (wire.FrameCap) applies", sink)
			return
		}
		for _, origin := range resolved {
			origin = ast.Unparen(origin)
			switch x := origin.(type) {
			case *ast.CallExpr:
				if !frameConstructor(pass, x) {
					pass.Reportf(origin.Pos(), "hand-rolled frame bytes reach %s: build frames with wire.AppendSession/AppendPartialSession/BatchEncoder.AppendSession so the per-type frame cap (wire.FrameCap) applies", sink)
				}
			case *ast.CompositeLit, *ast.BasicLit:
				pass.Reportf(origin.Pos(), "hand-rolled frame bytes reach %s: build frames with wire.AppendSession/AppendPartialSession/BatchEncoder.AppendSession so the per-type frame cap (wire.FrameCap) applies", sink)
			default:
				pass.Reportf(origin.Pos(), "byte slice of unknown origin reaches %s: frames must flow through wire.AppendSession/AppendPartialSession/BatchEncoder.AppendSession so the per-type frame cap (wire.FrameCap) applies", sink)
			}
		}
	})
}

// frameSinkArg classifies call as a transport sink and returns its
// byte-slice argument: Write on a net.Conn/io.Writer receiver, or a
// send/Enqueue method taking []byte (the send-queue surface). Returns
// (nil, "") for anything else.
func frameSinkArg(pass *Pass, call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	recvType := func() types.Type {
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			return nil
		}
		return tv.Type
	}
	switch sel.Sel.Name {
	case "Write":
		t := recvType()
		if t == nil || !(NamedFrom(t, "net", "Conn") || NamedFrom(t, "io", "Writer") || NamedFrom(t, "net", "TCPConn")) {
			return nil, ""
		}
		if len(call.Args) != 1 || !byteSliceType(pass.TypesInfo.Types[call.Args[0]].Type) {
			return nil, ""
		}
		return call.Args[0], "the connection write"
	case "send", "Enqueue":
		// Same-package queue surface: a method taking a []byte first arg.
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil || obj.Pkg() != pass.Pkg {
			return nil, ""
		}
		for _, a := range call.Args {
			if tv, ok := pass.TypesInfo.Types[a]; ok && byteSliceType(tv.Type) {
				return a, "the send queue"
			}
		}
	}
	return nil, ""
}

// frameConstructor reports whether call targets a wire-segment package
// function or method whose name starts with Append — the FrameCap-checked
// constructors.
func frameConstructor(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeObject(pass.TypesInfo, call)
	return objPkgSegment(obj, "wire") && strings.HasPrefix(obj.Name(), "Append")
}
