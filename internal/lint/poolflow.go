package lint

import (
	"go/ast"
	"go/types"

	"corona/internal/lint/analysis"
)

// PoolFlow enforces the pooled message lifecycle from PR 5
// (docs/PERFORMANCE.md, "Message lifecycle and pooling rules"): a
// noc.Message is born from a network's free list via Acquire and dies in
// Consume, which recycles it. Two ways to break that discipline are caught
// statically:
//
//  1. Constructing a noc.Message by composite literal outside its pool, or
//     a mesh packet anywhere but the one Put that parks it in the mesh's
//     packet arena. A literal message bypasses the free list, so the
//     steady-state zero-allocation property silently erodes, and Consume
//     recycles a message the pool never owned; a packet built elsewhere
//     is state the arena does not own.
//
//  2. Acquiring a message that provably cannot reach a consumer: the result
//     is discarded, or the variable holding it is only ever written to
//     (field fills) and never passed to a call, stored, sent, or returned.
//     Such a message is a leaked receive-buffer credit.
//
// The escape check is intraprocedural and deliberately conservative — any
// call argument, store, send, alias, or return counts as reaching a
// consumer; only the unambiguous leak is reported.
var PoolFlow = &analysis.Analyzer{
	Name: "poolflow",
	Doc: "forbid noc.Message literals outside their pool and mesh packet literals " +
		"outside their arena, and flag Acquire results that cannot reach Send/Consume",
	Run: runPoolFlow,
}

func runPoolFlow(pass *analysis.Pass) error {
	isNocPkg := func(p string) bool { return hasInternalSegment(p, "noc") }
	isMeshPkg := func(p string) bool { return hasInternalSegment(p, "mesh") }
	inNoc := isNocPkg(pass.Pkg.Path())

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if pass.InTestFile(n.Pos()) {
					return true
				}
				t := pass.TypesInfo.Types[n].Type
				if !inNoc && isNamedFrom(t, "Message", isNocPkg) {
					pass.Reportf(n.Pos(),
						"noc.Message composite literal bypasses the message pool: obtain messages with Acquire so Consume can recycle them (docs/PERFORMANCE.md)")
				}
				if isNamedFrom(t, "packet", isMeshPkg) {
					pass.Reportf(n.Pos(),
						"mesh packet composite literal bypasses the packet arena: build packets only where Send parks them in it")
				}
			case *ast.FuncDecl:
				if n.Body != nil && !pass.InTestFile(n.Pos()) {
					checkAcquireEscapes(pass, n, isNocPkg)
				}
			}
			return true
		})
	}
	return nil
}

// checkAcquireEscapes scans one function for Acquire calls whose *Message
// result never reaches a consuming use.
func checkAcquireEscapes(pass *analysis.Pass, fn *ast.FuncDecl, isNocPkg func(string) bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pass.TypesInfo, call)
		if callee == nil || callee.Name() != "Acquire" {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok || sig.Results().Len() != 1 || !isNamedFrom(sig.Results().At(0).Type(), "Message", isNocPkg) {
			return true
		}
		switch use := acquireResultUse(pass, fn, call); use {
		case acquireDiscarded:
			pass.Reportf(call.Pos(),
				"Acquire result is discarded: the message never reaches Send or Consume, leaking a pooled message")
		case acquireFilledOnly:
			pass.Reportf(call.Pos(),
				"acquired message is filled but never sent, stored, returned, or consumed: leaked pooled message")
		}
		return true
	})
}

type acquireUse int

const (
	acquireConsumed acquireUse = iota // reaches a call/store/send/return, or analysis gave up
	acquireDiscarded
	acquireFilledOnly
)

// acquireResultUse classifies what happens to the result of one Acquire
// call inside fn.
func acquireResultUse(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) acquireUse {
	// Result used directly as part of a larger expression (argument,
	// return value, …): find the immediate parent statement/expression.
	obj := acquireBoundVar(pass, fn, call)
	if obj == nil {
		// Not a simple `m := X.Acquire()` binding. A bare statement or
		// blank assignment discards the message; anything else (argument
		// position, return, field store) is a consuming context.
		if isDiscardingContext(fn, call) {
			return acquireDiscarded
		}
		return acquireConsumed
	}
	consumed := false
	walkWithParents(fn.Body, func(n ast.Node, parents []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return
		}
		if identIsConsumingUse(id, parents) {
			consumed = true
		}
	})
	if consumed {
		return acquireConsumed
	}
	return acquireFilledOnly
}

// acquireBoundVar returns the variable a `v := X.Acquire()` statement binds,
// or nil when the call is not a single-variable initialization.
func acquireBoundVar(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) *types.Var {
	var found *types.Var
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) != 1 {
			return true
		}
		if ast.Unparen(assign.Rhs[0]) != ast.Expr(call) {
			return true
		}
		if id, ok := assign.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				found = v
			} else if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				found = v
			}
		}
		return found == nil
	})
	return found
}

// isDiscardingContext reports whether call appears as its own statement or
// on the RHS of a blank-only assignment.
func isDiscardingContext(fn *ast.FuncDecl, call *ast.CallExpr) bool {
	discarding := false
	walkWithParents(fn.Body, func(n ast.Node, parents []ast.Node) {
		if n != ast.Node(call) || len(parents) == 0 {
			return
		}
		switch p := parents[len(parents)-1].(type) {
		case *ast.ExprStmt:
			discarding = true
		case *ast.AssignStmt:
			allBlank := true
			for _, lhs := range p.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
			if allBlank {
				discarding = true
			}
		}
	})
	return discarding
}

// identIsConsumingUse reports whether one use of the acquired variable can
// hand the message onward: argument to any call, a store (assignment RHS,
// composite literal, index/map store, channel send), or a return. Plain
// field fills (m.ID = …) and the binding itself do not count.
func identIsConsumingUse(id *ast.Ident, parents []ast.Node) bool {
	child := ast.Node(id)
	for i := len(parents) - 1; i >= 0; i-- {
		switch p := parents[i].(type) {
		case *ast.SelectorExpr:
			// m.Field — keep climbing: m.Field as a call argument would be
			// odd for a message, but m itself as an argument arrives here
			// only when child == p.X, which the CallExpr case handles.
			if p.X != child {
				return false // the ident is the .Sel, not a use of m
			}
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if arg == child {
					return true
				}
			}
			return false // it is the function expression, e.g. m.Method()
		case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit:
			return true
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if rhs == child {
					return true // aliased or stored somewhere
				}
			}
			// LHS: m.Field = x or m = x — a fill or rebind, not consumption.
			return false
		case *ast.IndexExpr, *ast.StarExpr, *ast.UnaryExpr, *ast.ParenExpr:
			// keep climbing through value-preserving wrappers
		default:
			return false
		}
		child = parents[i]
	}
	return false
}

// walkWithParents walks the AST calling visit with each node's ancestor
// chain (outermost first).
func walkWithParents(root ast.Node, visit func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}
