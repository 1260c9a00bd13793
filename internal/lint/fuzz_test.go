package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzParseAllowDirective feeds arbitrary comment text through the
// directive parser. Invariants: no panic; every surviving directive
// carries a non-empty reason; a scoped directive names a known
// analyzer; and a directive that draws a diagnostic never also
// suppresses (the escape hatch is valid or loud, never both).
func FuzzParseAllowDirective(f *testing.F) {
	f.Add("//detlint:allow nondet measured wall time, not simulation state")
	f.Add("//detlint:allow reason without scope")
	f.Add("//detlint:allow")
	f.Add("//detlint:allow nondett typo in the analyzer name")
	f.Add("//detlint:unit blocks")
	f.Add("//detlint:frobnicate nope")
	f.Add("//detlint:allow \t  ")
	f.Fuzz(func(t *testing.T, comment string) {
		if strings.ContainsAny(comment, "\n\r") || !strings.HasPrefix(comment, "//") {
			t.Skip()
		}
		src := "package p\n" + comment + "\nfunc f() {}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip()
		}
		known := map[string]bool{"nondet": true, "floatcmp": true, "simunits": true}
		var diags []Diagnostic
		dirs := parseAllows(fset, file, known, func(d Diagnostic) { diags = append(diags, d) })
		for _, dir := range dirs {
			if dir.reason == "" {
				t.Fatalf("directive with empty reason survived: %q", comment)
			}
			if dir.analyzer != "" && !known[dir.analyzer] {
				t.Fatalf("scoped directive with unknown analyzer %q survived: %q", dir.analyzer, comment)
			}
		}
		if len(diags) > 0 && len(dirs) > 0 {
			t.Fatalf("comment %q both errored and suppressed", comment)
		}
	})
}
