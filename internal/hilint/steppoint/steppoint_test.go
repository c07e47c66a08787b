package steppoint_test

import (
	"testing"

	"hiconc/internal/hilint/linttest"
	"hiconc/internal/hilint/steppoint"
)

// TestSteppoint pins the analyzer against the bug-shaped fixture: the
// labeled direct, negated and in-case CAS shapes stay silent, unlabeled
// writes (including through a word alias) are reported, and an
// //hilint:allow without a reason is itself a finding.
func TestSteppoint(t *testing.T) {
	linttest.Run(t, "testdata/src/hihash", steppoint.Analyzer)
}

// TestSteppointScopedToHihash pins the package scoping: a field named
// "groups" outside package hihash holds no protocol words — the analyzer
// must stay silent there.
func TestSteppointScopedToHihash(t *testing.T) {
	linttest.Run(t, "testdata/src/histats", steppoint.Analyzer)
}
