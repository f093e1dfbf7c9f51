package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunExitContracts holds the driver to what CI reads off it: exit 0 on a
// clean run, 1 on any finding, whole-module or scoped, and 2 when it cannot
// run. The module under testdata/mod has one errcheck finding, in
// cmd/dropper, and no cmd/gone.
func TestRunExitContracts(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{"./cmd/clean"}, 0},
		{"unsuppressed finding", []string{"./..."}, 1},
		{"finding, scoped run", []string{"./cmd/dropper"}, 1},
		{"no such package", []string{"./cmd/gone"}, 2},
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("testdata", "mod")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(cwd); err != nil {
			t.Error(err)
		}
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args); got != tc.want {
				t.Errorf("run(%q) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}
