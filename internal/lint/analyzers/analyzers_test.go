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

// TestConfigHashOK pins the zero-finding contract on a fixture shaped
// like core.Config's real encoder (guarded callback, traversed nested
// spec, wholesale slice copy).
func TestConfigHashOK(t *testing.T) {
	linttest.Run(t, fixture("confighash_ok"), analyzers.ConfigHash)
}

// TestConfigHashBad is the intentional-violation fixture: a Config
// field missing from the encoder (the cache-poisoning hazard), a nested
// spec field missing from it, and a mirror field never assigned.
func TestConfigHashBad(t *testing.T) {
	linttest.Run(t, fixture("confighash_bad"), analyzers.ConfigHash)
}

func TestMetricReg(t *testing.T) {
	linttest.Run(t, fixture("metricreg"), analyzers.MetricReg)
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

// TestSuiteSelfGates runs the full suite over every fixture: analyzers
// must not fire outside their domain (confighash on a package without
// a Config, metricreg on a package without an exposition, ...), so the
// multichecker can safely run everything everywhere.
func TestSuiteSelfGates(t *testing.T) {
	linttest.Run(t, fixture("confighash_ok"), analyzers.All()...)
}
