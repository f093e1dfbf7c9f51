package lint

import (
	"go/token"
	"testing"
)

// TestSharedComputesOncePerPackage: however many analyzers ask a package's
// Pass for a shared value, it is computed once for that package and never
// handed to another one.
func TestSharedComputesOncePerPackage(t *testing.T) {
	computed := map[string]int{}
	reader := func(name string) *Analyzer {
		return &Analyzer{Name: name, Run: func(p *Pass) error {
			got := p.Shared("key", func() any { computed[p.PkgPath]++; return p.PkgPath })
			if got != p.PkgPath {
				t.Errorf("%s over %s was handed %v", name, p.PkgPath, got)
			}
			return nil
		}}
	}
	fset := token.NewFileSet()
	pkgs := []*Package{{PkgPath: "a", Fset: fset}, {PkgPath: "b", Fset: fset}}
	if _, err := RunAnalyzers(pkgs, []*Analyzer{reader("one"), reader("two"), reader("three")}); err != nil {
		t.Fatal(err)
	}
	if computed["a"] != 1 || computed["b"] != 1 {
		t.Fatalf("computed %v, want once per package", computed)
	}
}
