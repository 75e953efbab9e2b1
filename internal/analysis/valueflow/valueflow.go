// Package valueflow is hvaclint's reusable interprocedural value-flow
// engine, built on the cfg package's basic-block graphs and the CHA
// call graph. It owns the machinery the module analyzers used to
// hand-roll per rule:
//
//   - Taint: a module-wide may-flow fixpoint over fields, locals and
//     function results — seeded by the analyzer, propagated through
//     assignments, composite literals, arithmetic, conversions,
//     returns and (optionally) call arguments, until nothing new
//     flows. untrustedlen's wire-length tracking runs on it.
//   - Flow: per-function def-use chains (reaching definitions over
//     the CFG) plus alias-root resolution, so an analyzer can ask
//     "which fields can this local name?" — blockguard resolves conn
//     parameters through local aliases with it.
//   - Fixpoint: the generic grow-only summary iteration ownerpass
//     runs its interprocedural ownership contracts on.
//
// Everything is deterministic: iteration follows Graph.Nodes() order
// and block index order, so two runs over the same source report the
// same findings in the same order (TestSuiteDeterministic).
package valueflow

// Fixpoint drives a grow-only summary iteration: round is called until
// it reports no change or maxRounds elapse. It returns the number of
// rounds run. The caller's summaries must only grow for termination to
// mean convergence; the cap is the defensive backstop.
func Fixpoint(maxRounds int, round func() bool) int {
	for r := 1; r <= maxRounds; r++ {
		if !round() {
			return r
		}
	}
	return maxRounds
}

// AddSet appends v to list if absent, preserving order. The module
// analyzers use it for small deterministic value sets where a map
// would scramble reporting order.
func AddSet[T comparable](list []T, v T) []T {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}
