package lint

import "go/types"

// Facts is the cross-package fact store: per-analyzer summaries keyed
// by the defining object (a function, type or field). All packages in
// one RunPackages invocation share a loader and therefore a single
// types.Object identity per declaration, so a fact exported while
// analyzing repro/internal/sim is found again when a dependent package
// resolves the same object through its imports.
//
// Facts deliberately carry `any` payloads: each analyzer defines its
// own summary type and is the only reader of its own namespace, so
// there is nothing to gain from generics here and the store stays one
// map.
type Facts struct {
	m map[factKey]any
}

type factKey struct {
	analyzer string
	obj      types.Object
}

// NewFacts returns an empty store. The runner creates one per
// RunPackages invocation; tests that drive passes by hand can too.
func NewFacts() *Facts {
	return &Facts{m: make(map[factKey]any)}
}

func (f *Facts) set(analyzer string, obj types.Object, fact any) {
	f.m[factKey{analyzer, obj}] = fact
}

func (f *Facts) get(analyzer string, obj types.Object) any {
	return f.m[factKey{analyzer, obj}]
}
