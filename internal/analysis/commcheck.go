package analysis

import (
	"go/ast"
	"go/types"
)

// CommCheck enforces transport-API hygiene on comm.Endpoint users:
//
//   - The error results of Send, Recv, RecvAny, RecvGroup and Close
//     must be consumed. Since the fault-tolerance work, these errors
//     carry real protocol state — sticky stream failures surface on
//     Close, timeouts arrive as structured *comm.TimeoutError — and a
//     dropped one silently turns a dead peer into a wrong answer.
//     Assigning to _ is accepted as a visible, deliberate discard.
//   - Tag arguments must be named constants, comm.MakeTag results or
//     variables — never bare integer literals. An untyped literal tag
//     bypasses the kind/layer/sequence packing and collides with
//     protocol traffic in ways that only fail under load.
//   - Stream ids (comm.StreamID arguments, e.g. MakeStreamTag's first
//     parameter) must likewise never be bare integer literals: real
//     ids are allocated by the stream registry and never reused, so a
//     hard-coded id either collides with a live tenant or silently
//     addresses a dead namespace. comm.DefaultStream is the named way
//     to mean "the cluster's own tag space".
//   - The root stream API gets the same error discipline as Endpoint:
//     Stream.Run, Stream.Close and Cluster.Close return errors that
//     carry pass results and sticky stream state, and a dropped one
//     turns a failed collective into a silent no-op.
//
// Test files are skipped (teardown paths discard errors by design, and
// fixed stream ids are how isolation tests pin their scenarios).
// Suppress with //kylix:allow commcheck[:detail].
var CommCheck = &Analyzer{
	Name: "commcheck",
	Doc:  "comm.Endpoint errors must be consumed and tags must be named constants",
	Run:  runCommCheck,
}

// endpointMethods are the comm.Endpoint methods whose error results are
// load-bearing.
var endpointMethods = map[string]bool{
	"Send": true, "Recv": true, "RecvAny": true, "RecvGroup": true, "Close": true,
}

const commPkgPath = "kylix/internal/comm"

// streamAPIMethods are the root-module methods whose error results are
// load-bearing like Endpoint's: a Stream pass result or a Close that
// surfaces sticky failures.
var streamAPIMethods = map[string]map[string]bool{
	"Stream":  {"Run": true, "Close": true},
	"Cluster": {"Close": true},
}

func runCommCheck(p *Pass) error {
	endpoint := lookupEndpoint(p)
	tagType := lookupCommType(p, "Tag")
	streamType := lookupCommType(p, "StreamID")
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscardedEndpointError(p, call, endpoint)
					checkDiscardedStreamError(p, call)
				}
			case *ast.DeferStmt:
				checkDiscardedEndpointError(p, n.Call, endpoint)
				checkDiscardedStreamError(p, n.Call)
			case *ast.GoStmt:
				checkDiscardedEndpointError(p, n.Call, endpoint)
				checkDiscardedStreamError(p, n.Call)
			case *ast.CallExpr:
				checkTagLiterals(p, n, tagType, streamType)
			}
			return true
		})
	}
	return nil
}

// lookupEndpoint finds the comm.Endpoint interface type, whether the
// analyzed package imports comm or is comm itself.
func lookupEndpoint(p *Pass) *types.Interface {
	var scope *types.Scope
	if p.Pkg.Path() == commPkgPath {
		scope = p.Pkg.Scope()
	} else {
		for _, imp := range p.Pkg.Imports() {
			if imp.Path() == commPkgPath {
				scope = imp.Scope()
				break
			}
		}
	}
	if scope == nil {
		return nil
	}
	obj := scope.Lookup("Endpoint")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// lookupCommType finds a named type in the comm package, whether the
// analyzed package imports comm or is comm itself.
func lookupCommType(p *Pass, name string) types.Type {
	var scope *types.Scope
	if p.Pkg.Path() == commPkgPath {
		scope = p.Pkg.Scope()
	} else {
		for _, imp := range p.Pkg.Imports() {
			if imp.Path() == commPkgPath {
				scope = imp.Scope()
				break
			}
		}
	}
	if scope == nil {
		return nil
	}
	obj := scope.Lookup(name)
	if obj == nil {
		return nil
	}
	return obj.Type()
}

// checkDiscardedEndpointError flags a statement-position call to an
// Endpoint method whose error result vanishes.
func checkDiscardedEndpointError(p *Pass, call *ast.CallExpr, endpoint *types.Interface) {
	if endpoint == nil {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !endpointMethods[sel.Sel.Name] {
		return
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return
	}
	// The receiver must satisfy comm.Endpoint (interface or concrete
	// transport implementation).
	recv := p.Info.TypeOf(sel.X)
	if recv == nil || !implementsEndpoint(recv, endpoint) {
		return
	}
	// And the method must actually return an error (Mailbox.Close, for
	// example, returns nothing and is fine to call bare).
	if !lastResultIsError(sig) {
		return
	}
	p.Reportf(call.Pos(), "discard",
		"%s.%s error discarded: transport errors carry protocol state (sticky stream failures, timeouts); handle it or assign to _ deliberately",
		exprString(sel.X), sel.Sel.Name)
}

// checkDiscardedStreamError flags a statement-position call to a root
// stream-API method (Stream.Run/Close, Cluster.Close) whose
// error result vanishes.
func checkDiscardedStreamError(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !lastResultIsError(sig) {
		return
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != p.ModulePath || !streamAPIMethods[obj.Name()][fn.Name()] {
		return
	}
	p.Reportf(call.Pos(), "discard",
		"%s.%s error discarded: stream errors carry the pass result and sticky failure state; handle it or assign to _ deliberately",
		exprString(sel.X), sel.Sel.Name)
}

func implementsEndpoint(t types.Type, endpoint *types.Interface) bool {
	if types.Implements(t, endpoint) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), endpoint)
	}
	return false
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	return res.Len() > 0 && isErrorType(res.At(res.Len()-1).Type())
}

// checkTagLiterals flags integer literals flowing into comm.Tag or
// comm.StreamID parameters, and explicit comm.Tag(<literal>) /
// comm.StreamID(<literal>) conversions.
func checkTagLiterals(p *Pass, call *ast.CallExpr, tagType, streamType types.Type) {
	if tagType == nil {
		return
	}
	// Explicit conversions Tag(7) / StreamID(7).
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 || !isIntLiteral(call.Args[0]) {
			return
		}
		if types.Identical(tv.Type, tagType) {
			p.Reportf(call.Args[0].Pos(), "taglit",
				"untyped integer literal converted to comm.Tag: use comm.MakeTag or a named constant so kind/layer/sequence packing holds")
		}
		if streamType != nil && types.Identical(tv.Type, streamType) {
			p.Reportf(call.Args[0].Pos(), "streamlit",
				"untyped integer literal converted to comm.StreamID: stream ids are allocated by the registry (comm.DefaultStream names the cluster's own space)")
		}
		return
	}
	sig, _ := p.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !isIntLiteral(arg) {
			continue
		}
		if types.Identical(pt, tagType) {
			p.Reportf(arg.Pos(), "taglit",
				"untyped integer literal passed as comm.Tag: use comm.MakeTag or a named constant so kind/layer/sequence packing holds")
		}
		if streamType != nil && types.Identical(pt, streamType) {
			p.Reportf(arg.Pos(), "streamlit",
				"untyped integer literal passed as comm.StreamID: stream ids are allocated by the registry (comm.DefaultStream names the cluster's own space)")
		}
	}
}

// isIntLiteral matches bare integer literals (possibly parenthesized or
// negated) — but not named constants, which document intent.
func isIntLiteral(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.BasicLit:
		return true
	case *ast.UnaryExpr:
		return isIntLiteral(e.X)
	}
	return false
}
