// Package testenv tells tests whether the race detector is on: its runtime
// allocates, so the allocation-budget tests skip themselves under it.
package testenv

import "runtime/debug"

// Race reports whether the binary was built with -race (read from the build
// settings: pcpdalint's loader cannot take a pair of build-tagged files).
var Race = func() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}()
