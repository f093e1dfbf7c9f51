// Package all registers the complete pcpdalint analyzer suite: the one
// list both runners apply — the tier-1 meta-test in this package, which is
// the gate, and the cmd/pcpdalint driver, which is the tool.
package all

import (
	"pcpda/internal/lint"
	"pcpda/internal/lint/allocfree"
	"pcpda/internal/lint/atomics"
	"pcpda/internal/lint/capability"
	"pcpda/internal/lint/determinism"
	"pcpda/internal/lint/errcheck"
	"pcpda/internal/lint/guardedby"
	"pcpda/internal/lint/lockorder"
)

// Analyzers is the suite in stable (reporting) order.
var Analyzers = []*lint.Analyzer{
	allocfree.Analyzer,
	atomics.Analyzer,
	capability.Analyzer,
	determinism.Analyzer,
	errcheck.Analyzer,
	guardedby.Analyzer,
	lockorder.Analyzer,
}
