package all_test

import (
	"os"
	"testing"

	"pcpda/internal/lint"
	"pcpda/internal/lint/all"
)

// TestSuiteCleanOnRealTree is the suite's meta-test: the full analyzer
// suite must run clean over the actual module. There are no suppressions; a
// false positive is fixed in its analyzer. This is the same contract the CI
// lint job enforces via cmd/pcpdalint; having it as a test means
// `go test ./...` catches a contract violation even where CI is not wired
// up.
func TestSuiteCleanOnRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modPath, modDir, err := lint.FindModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader(lint.ModuleResolver(modPath, modDir))
	pkgs, err := loader.LoadPatterns(modPath, modDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.RunAnalyzers(pkgs, all.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
	t.Logf("suite clean: %d packages", len(pkgs))
}
