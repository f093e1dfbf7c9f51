package main

import (
	"os"
	"path/filepath"
	"testing"

	"pcpda/internal/lint"
)

// TestRunExitContracts holds the driver to what CI reads off it: exit 0 on a
// clean run, 1 on an unsuppressed finding, 1 on a suppression entry that
// matched nothing — the last on a whole-module run only, since a scoped run
// cannot tell a stale entry from one for a package it did not load. The
// module under testdata/mod has one errcheck finding, in cmd/dropper.
func TestRunExitContracts(t *testing.T) {
	const (
		matching = `errcheck cmd/dropper/main.go "os.Remove drops" -- the test module's one finding` + "\n"
		stale    = `errcheck cmd/gone/main.go "drops its error" -- excuses code that no longer exists` + "\n"
	)
	cases := []struct {
		name         string
		suppressions string
		args         []string
		want         int
	}{
		{"clean package", "", []string{"./cmd/clean"}, 0},
		{"unsuppressed finding", "", []string{"./..."}, 1},
		{"suppressed finding", matching, []string{"./..."}, 0},
		{"stale suppression, whole module", matching + stale, []string{"./..."}, 1},
		{"stale suppression, scoped run", matching + stale, []string{"./cmd/dropper"}, 0},
		{"malformed suppression file", "errcheck no-justification\n", []string{"./..."}, 2},
	}
	// The suppression file has one fixed place, the module root, so each
	// case runs in its own copy of the module.
	src := filepath.Join("testdata", "mod")
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(cwd); err != nil {
			t.Error(err)
		}
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod := t.TempDir()
			for _, rel := range []string{"go.mod", "cmd/clean/main.go", "cmd/dropper/main.go"} {
				data, err := os.ReadFile(filepath.Join(cwd, src, rel))
				if err != nil {
					t.Fatal(err)
				}
				dst := filepath.Join(mod, rel)
				if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(dst, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.suppressions != "" {
				if err := os.WriteFile(filepath.Join(mod, lint.SuppressFile), []byte(tc.suppressions), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Chdir(mod); err != nil {
				t.Fatal(err)
			}
			if got := run(tc.args); got != tc.want {
				t.Errorf("run(%q) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}
