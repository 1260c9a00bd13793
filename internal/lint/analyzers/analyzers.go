package analyzers

import "repro/internal/lint"

// All returns every detlint analyzer: the two syntactic checks
// (DESIGN.md §10) followed by the four dataflow analyzers
// (DESIGN.md §15). Each analyzer self-gates on package content
// (simunits needs //detlint:unit tags, hotalloc //detlint:hotpath
// roots, ctxflow/lockdisc the concurrent packages), so running the
// full suite over a package is always safe.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{Nondet, FloatCmp, SimUnits, CtxFlow, LockDisc, HotAlloc}
}
