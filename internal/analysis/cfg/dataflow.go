package cfg

// Forward is a generic forward dataflow problem over a Graph. The
// analyzer supplies the lattice operations; Fixpoint iterates blocks
// in deterministic index order until the in-facts stabilize.
//
// F is the fact type (typically a pointer to a state struct). The
// engine never aliases facts across blocks: Transfer receives a private
// copy (via Clone) it may mutate and return.
type Forward[F any] struct {
	// Graph is the function's control-flow graph.
	Graph *Graph
	// Entry is the fact on entry to Blocks[0].
	Entry F
	// Transfer applies the block's nodes to in, returning the out fact.
	// It may mutate and return in.
	Transfer func(b *Block, in F) F
	// Join merges two facts at a control-flow merge. It may mutate and
	// return a.
	Join func(a, b F) F
	// Equal reports whether two facts are equivalent (fixpoint test).
	Equal func(a, b F) bool
	// Clone deep-copies a fact.
	Clone func(F) F
}

// maxRounds bounds fixpoint iteration. The lattices hvaclint runs are
// finite and small (bitmask states per token), so a fixpoint arrives
// within a handful of rounds; the cap is a defensive backstop against
// a non-monotone Transfer looping forever.
const maxRounds = 64

// Fixpoint computes the stable in-fact of every block, keyed by block
// index. The entry block's in-fact is Entry; facts flow along edges and
// are merged by Join.
func (fw *Forward[F]) Fixpoint() []F {
	n := len(fw.Graph.Blocks)
	ins := make([]F, n)
	has := make([]bool, n)
	ins[fw.Graph.Entry.Index] = fw.Entry
	has[fw.Graph.Entry.Index] = true

	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, blk := range fw.Graph.Blocks {
			if !has[blk.Index] {
				continue // not yet reached
			}
			out := fw.Transfer(blk, fw.Clone(ins[blk.Index]))
			for _, succ := range blk.Succs {
				edge := fw.Clone(out)
				j := succ.Index
				if !has[j] {
					ins[j] = edge
					has[j] = true
					changed = true
					continue
				}
				merged := fw.Join(fw.Clone(ins[j]), edge)
				if !fw.Equal(merged, ins[j]) {
					ins[j] = merged
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return ins
}
