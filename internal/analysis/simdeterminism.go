package analysis

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs are the packages whose behaviour must be a pure
// function of the seed: the discrete-event kernel and every simulated
// component built on it, the model of the paper's HVAC among them.
var deterministicPkgs = map[string]bool{
	"hvac/internal/sim":    true,
	"hvac/internal/simnet": true,
	"hvac/internal/device": true,
	"hvac/internal/pfs":    true,
	"hvac/internal/summit": true,
	"hvac/internal/train":  true,
}

// wallClockFuncs are the time functions that read or wait on the wall
// clock. Types like time.Duration remain fine: only calls are flagged.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandAllowed are the math/rand constructors that build explicitly
// seeded generators; every other package-level math/rand function uses
// the process-global source and breaks replay.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// SimDeterminism enforces the sim kernel's bit-for-bit replay promise
// (DESIGN.md): no wall-clock reads, no process-global randomness, and no
// iteration over Go's unordered maps inside the deterministic packages.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global rand and unordered map iteration in deterministic sim packages",
	Run:  runSimDeterminism,
}

func runSimDeterminism(p *Pass) {
	if !deterministicPkgs[p.ImportPath] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(p, n); fn != nil && fn.Pkg() != nil {
					checkDeterministicCall(p, n, fn)
				}
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap && !orderInsensitiveMapBody(n) {
						p.Reportf(n.Pos(),
							"iteration over map %s is unordered and breaks deterministic replay; iterate sorted keys instead",
							types.ExprString(n.X))
					}
				}
			}
			return true
		})
	}
}

func checkDeterministicCall(p *Pass, call *ast.CallExpr, fn *types.Func) {
	pkgPath := fn.Pkg().Path()
	pkgLevel := fn.Type().(*types.Signature).Recv() == nil
	switch {
	case pkgPath == "time" && pkgLevel && wallClockFuncs[fn.Name()]:
		p.Reportf(call.Pos(),
			"time.%s reads the wall clock; deterministic code must use the engine's virtual clock (sim.Engine.Now)",
			fn.Name())
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && pkgLevel && !globalRandAllowed[fn.Name()]:
		p.Reportf(call.Pos(),
			"%s.%s uses the process-global random source; deterministic code must use a seeded generator (sim.RNG or rand.New)",
			pkgPath, fn.Name())
	}
}

// orderInsensitiveMapBody reports whether a map-range body provably
// cannot leak iteration order: every statement either appends the range
// variables to a slice (the first half of the canonical collect-sort
// idiom) or bumps a counter. Anything richer is flagged and needs the
// sorted-keys rewrite or a reasoned suppression.
func orderInsensitiveMapBody(n *ast.RangeStmt) bool {
	rangeVar := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		for _, v := range []ast.Expr{n.Key, n.Value} {
			if vid, ok := v.(*ast.Ident); ok && vid.Name == id.Name {
				return true
			}
		}
		return false
	}
	for _, stmt := range n.Body.List {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			// counting elements is commutative
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || fun.Name != "append" || len(call.Args) < 2 {
				return false
			}
			if dst, ok := call.Args[0].(*ast.Ident); !ok || dst.Name != lhs.Name {
				return false
			}
			for _, arg := range call.Args[1:] {
				if !rangeVar(arg) {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

// calleeFunc resolves the called function or method, or nil for indirect
// calls, conversions and built-ins.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
