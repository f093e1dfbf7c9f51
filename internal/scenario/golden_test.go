package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const simGoldenFile = "testdata/sim.sha256"

// update rewrites simGoldenFile from this build instead of checking against
// it (go test ./internal/scenario -run TestShippedScenarioSimReports -update),
// for a change meant to move a shipped scenario's report.
var update = flag.Bool("update", false, "rewrite "+simGoldenFile+" from this build")

// TestShippedScenarioSimReports pins the sim report of every scenario under
// scenarios/ to the digest stored in simGoldenFile. The bytes hashed are the
// ones `pcpscenario -f scenarios/<name>.json -backend sim -o <name>.json`
// writes, and the file is in sha256sum's line format ("<hex>  <name>.json"),
// so CI checks the command's output against the same line with sha256sum -c.
func TestShippedScenarioSimReports(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenarios/ catalog found")
	}
	var got strings.Builder
	for _, p := range paths {
		spec, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunSim(spec, SimOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out, err := json.MarshalIndent(&Document{Scenario: spec.Name, Reports: []*Report{rep}}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(append(out, '\n')), filepath.Base(p))
	}
	if *update {
		if err := os.WriteFile(simGoldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(simGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("shipped scenario sim reports changed\nstored:\n%s\ngot:\n%s", want, got.String())
	}
}
