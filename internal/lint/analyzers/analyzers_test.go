package analyzers_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analyzers"
	"repro/internal/lint/linttest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestNondet(t *testing.T) {
	linttest.Run(t, fixture("nondet"), analyzers.Nondet)
}

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, fixture("floatcmp"), analyzers.FloatCmp)
}

// TestSimUnits covers the dimensional dataflow: the seeded
// seconds/blocks conversion, arithmetic and comparisons across units,
// tagged-field stores, return-unit facts, and join behavior.
func TestSimUnits(t *testing.T) {
	linttest.Run(t, fixture("simunits"), analyzers.SimUnits)
}

// TestCtxFlow covers goroutine exit proofs over the CFG, context
// stores into structs, and dropped-context findings.
func TestCtxFlow(t *testing.T) {
	linttest.Run(t, fixture("ctxflow"), analyzers.CtxFlow)
}

// TestLockDisc covers blocking work under a mutex and the fact-store
// lock-order inversion.
func TestLockDisc(t *testing.T) {
	linttest.Run(t, fixture("lockdisc"), analyzers.LockDisc)
}

// TestHotAlloc covers the call-graph walk from a //detlint:hotpath
// root, including the seeded closure in a reachable callee.
func TestHotAlloc(t *testing.T) {
	linttest.Run(t, fixture("hotalloc"), analyzers.HotAlloc)
}

// TestSuiteSelfGates runs the full suite over the floatcmp fixture:
// every other analyzer must stay silent outside its domain (simunits
// without unit tags, hotalloc without a hotpath root, ...), so the
// multichecker can safely run everything everywhere.
func TestSuiteSelfGates(t *testing.T) {
	linttest.Run(t, fixture("floatcmp"), analyzers.All()...)
}
