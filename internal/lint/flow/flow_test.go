package flow_test

import (
	"path/filepath"
	"testing"

	"pcpda/internal/lint"
	"pcpda/internal/lint/flow"
)

// TestAnalyzeOncePerPackage: every analyzer of one suite run reads the same
// Result for a package — the walk ran once — and a second run starts over.
func TestAnalyzeOncePerPackage(t *testing.T) {
	root := filepath.Join("..", "guardedby", "testdata", "src")
	const path = "pcpda/internal/guardtest"
	pkg, err := lint.NewLoader(lint.TreeResolver(root)).LoadDir(path, filepath.Join(root, filepath.FromSlash(path)))
	if err != nil {
		t.Fatal(err)
	}
	var seen []*flow.Result
	reader := func(name string) *lint.Analyzer {
		return &lint.Analyzer{Name: name, Run: func(p *lint.Pass) error {
			seen = append(seen, flow.Analyze(p))
			return nil
		}}
	}
	for range 2 {
		if _, err := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{reader("one"), reader("two")}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 4 || seen[0] != seen[1] || seen[2] != seen[3] || seen[0] == seen[2] {
		t.Fatalf("results %p: want one per run, shared within it", seen)
	}
	if len(seen[0].Accesses) == 0 || seen[0].Guards == nil {
		t.Fatal("the shared result is empty")
	}
}
