package valueflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"hvac/internal/analysis/callgraph"
	"hvac/internal/analysis/cfg"
)

// A Def is one definition site of a function-local variable: a
// parameter or named result (defined at entry), a declaration, an
// assignment, or an increment.
type Def struct {
	// Var is the defined variable.
	Var *types.Var
	// Pos locates the defining node (the parameter name for entry
	// defs).
	Pos token.Pos
	// RHS is the defining expression for plain assignments and
	// declarations, nil for parameters, increments, range bindings and
	// op= updates — sites where the new value is not a simple copy.
	RHS ast.Expr
}

// A Use is one read of a function-local variable, with the definitions
// that reach it along some CFG path.
type Use struct {
	// Var is the variable read.
	Var *types.Var
	// Pos locates the reading identifier.
	Pos token.Pos
	// Defs are the reaching definitions in deterministic (position)
	// order. Empty for free variables captured from an enclosing
	// function.
	Defs []*Def
}

// FnFlow is the def-use view of one function: every definition and use
// of its local variables, chained by reaching definitions over the
// CFG.
type FnFlow struct {
	// Node is the function analyzed.
	Node *callgraph.Node
	// Graph is its control-flow graph.
	Graph *cfg.Graph
	// Defs lists every definition site in source order.
	Defs []*Def
	// Uses lists every use site in source order.
	Uses []*Use

	byVar map[*types.Var][]*Def
}

// Flow computes the def-use chains of node n over its CFG g via a
// reaching-definitions fixpoint: a definition kills the variable's
// previous definitions in its block, facts merge by union, and every
// identifier read records the definitions live at that point.
func Flow(n *callgraph.Node, g *cfg.Graph) *FnFlow {
	fl := &FnFlow{Node: n, Graph: g, byVar: map[*types.Var][]*Def{}}
	info := n.Pkg.Info

	// Entry definitions: parameters, receivers and named results.
	entry := map[*types.Var][]*Def{}
	addEntryDef := func(name *ast.Ident) {
		if v, ok := info.Defs[name].(*types.Var); ok && name.Name != "_" {
			d := &Def{Var: v, Pos: name.Pos()}
			fl.record(d)
			entry[v] = []*Def{d}
		}
	}
	switch {
	case n.Func != nil:
		if fd := fl.funcDecl(); fd != nil {
			if fd.Recv != nil {
				for _, f := range fd.Recv.List {
					for _, name := range f.Names {
						addEntryDef(name)
					}
				}
			}
			forFieldNames(fd.Type, addEntryDef)
		}
	case n.Lit != nil:
		forFieldNames(n.Lit.Type, addEntryDef)
	}

	// Pre-scan every block node for its definitions so the transfer
	// function is a cheap replay.
	defsAt := map[ast.Node][]*Def{}
	for _, blk := range g.Blocks {
		for _, node := range blk.Nodes {
			fl.scanDefs(info, node, defsAt)
		}
	}

	type fact = map[*types.Var]map[*Def]bool
	transfer := func(b *cfg.Block, in fact) fact {
		for _, node := range b.Nodes {
			for _, d := range defsAt[node] {
				in[d.Var] = map[*Def]bool{d: true}
			}
		}
		return in
	}
	fw := &cfg.Forward[fact]{
		Graph:    g,
		Entry:    entryFact(entry),
		Transfer: transfer,
		Join: func(a, b fact) fact {
			for v, defs := range b {
				if a[v] == nil {
					a[v] = map[*Def]bool{}
				}
				for d := range defs {
					a[v][d] = true
				}
			}
			return a
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for v, da := range a {
				db, ok := b[v]
				if !ok || len(da) != len(db) {
					return false
				}
				for d := range da {
					if !db[d] {
						return false
					}
				}
			}
			return true
		},
		Clone: func(f fact) fact {
			out := make(fact, len(f))
			for v, defs := range f {
				m := make(map[*Def]bool, len(defs))
				for d := range defs {
					m[d] = true
				}
				out[v] = m
			}
			return out
		},
	}
	ins := fw.Fixpoint()

	// Replay each block from its in-fact, recording uses as they are
	// read and applying definitions as they happen.
	for _, blk := range g.Blocks {
		if blk.Index >= len(ins) || ins[blk.Index] == nil {
			continue
		}
		cur := fw.Clone(ins[blk.Index])
		for _, node := range blk.Nodes {
			fl.scanUses(info, node, cur)
			for _, d := range defsAt[node] {
				cur[d.Var] = map[*Def]bool{d: true}
			}
		}
	}
	sort.Slice(fl.Uses, func(i, j int) bool { return fl.Uses[i].Pos < fl.Uses[j].Pos })
	sort.Slice(fl.Defs, func(i, j int) bool { return fl.Defs[i].Pos < fl.Defs[j].Pos })
	return fl
}

func entryFact(entry map[*types.Var][]*Def) map[*types.Var]map[*Def]bool {
	f := make(map[*types.Var]map[*Def]bool, len(entry))
	for v, defs := range entry {
		m := map[*Def]bool{}
		for _, d := range defs {
			m[d] = true
		}
		f[v] = m
	}
	return f
}

// funcDecl finds the declaration node of a declared function, walking
// the file it was declared in.
func (fl *FnFlow) funcDecl() *ast.FuncDecl {
	for _, f := range fl.Node.Pkg.Files {
		if f.Pos() <= fl.Node.Pos && fl.Node.Pos < f.End() {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fl.Node.Pkg.Info.Defs[fd.Name] == fl.Node.Func {
					return fd
				}
			}
		}
	}
	return nil
}

func forFieldNames(ft *ast.FuncType, visit func(*ast.Ident)) {
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			for _, name := range f.Names {
				visit(name)
			}
		}
	}
	if ft.Results != nil {
		for _, f := range ft.Results.List {
			for _, name := range f.Names {
				visit(name)
			}
		}
	}
}

func (fl *FnFlow) record(d *Def) {
	fl.Defs = append(fl.Defs, d)
	fl.byVar[d.Var] = append(fl.byVar[d.Var], d)
}

// scanDefs collects the definitions a block node performs, in
// execution order. Compound statements never appear in block node
// lists (the CFG decomposes them), so a shallow walk that skips
// function literals sees exactly the block's own effects.
func (fl *FnFlow) scanDefs(info *types.Info, node ast.Node, defsAt map[ast.Node][]*Def) {
	if _, done := defsAt[node]; done {
		return
	}
	var defs []*Def
	add := func(id *ast.Ident, rhs ast.Expr) {
		if id.Name == "_" {
			return
		}
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			v, ok = info.Uses[id].(*types.Var)
		}
		if !ok || v.IsField() {
			return
		}
		d := &Def{Var: v, Pos: id.Pos(), RHS: rhs}
		fl.record(d)
		defs = append(defs, d)
	}
	ast.Inspect(node, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		switch x := x.(type) {
		case *ast.AssignStmt:
			copies := x.Tok == token.ASSIGN || x.Tok == token.DEFINE
			for i, lhs := range x.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				if copies && len(x.Lhs) == len(x.Rhs) {
					rhs = x.Rhs[i]
				}
				add(id, rhs)
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				var rhs ast.Expr
				if i < len(x.Values) && len(x.Values) == len(x.Names) {
					rhs = x.Values[i]
				}
				add(name, rhs)
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				add(id, nil)
			}
		case *ast.RangeStmt:
			// Range heads carry the ranged expression in the block; the
			// key/value bindings are definitions on every iteration edge.
			if id, ok := x.Key.(*ast.Ident); ok {
				add(id, nil)
			}
			if id, ok := x.Value.(*ast.Ident); ok {
				add(id, nil)
			}
		}
		return true
	})
	defsAt[node] = defs
}

// scanUses records every identifier read in the node against the
// current reaching-definition fact.
func (fl *FnFlow) scanUses(info *types.Info, node ast.Node, cur map[*types.Var]map[*Def]bool) {
	ast.Inspect(node, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := x.(*ast.SelectorExpr)
		if ok {
			// Only the base expression reads a local; the selector name
			// resolves a member.
			ast.Inspect(sel.X, func(y ast.Node) bool { fl.useIdent(info, y, cur); return true })
			return false
		}
		fl.useIdent(info, x, cur)
		return true
	})
}

func (fl *FnFlow) useIdent(info *types.Info, x ast.Node, cur map[*types.Var]map[*Def]bool) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return
	}
	u := &Use{Var: v, Pos: id.Pos()}
	for d := range cur[v] {
		u.Defs = append(u.Defs, d)
	}
	sort.Slice(u.Defs, func(i, j int) bool { return u.Defs[i].Pos < u.Defs[j].Pos })
	fl.Uses = append(fl.Uses, u)
}

// Origins resolves an expression to the set of root variables it may
// alias: struct fields, parameters, and locals whose definitions the
// chains cannot see through. A local assigned from a field in one
// branch and another field in the other resolves to both fields —
// flow-insensitive, which is the sound direction for lifecycle
// checks.
func (fl *FnFlow) Origins(e ast.Expr) []*types.Var {
	return fl.origins(e, map[*types.Var]bool{})
}

func (fl *FnFlow) origins(e ast.Expr, seen map[*types.Var]bool) []*types.Var {
	info := fl.Node.Pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
			return []*types.Var{v}
		}
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok {
			if v, ok = info.Defs[e].(*types.Var); !ok {
				return nil
			}
		}
		if v.IsField() {
			return []*types.Var{v}
		}
		if seen[v] {
			return nil
		}
		seen[v] = true
		defs := fl.byVar[v]
		if len(defs) == 0 {
			return []*types.Var{v} // parameter, free variable, or opaque binding
		}
		var roots []*types.Var
		for _, d := range defs {
			if d.RHS == nil {
				roots = AddSet(roots, v)
				continue
			}
			sub := fl.origins(d.RHS, seen)
			if len(sub) == 0 {
				roots = AddSet(roots, v)
			}
			for _, r := range sub {
				roots = AddSet(roots, r)
			}
		}
		return roots
	}
	return nil
}
