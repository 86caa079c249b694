package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestLockOrderGolden(t *testing.T)  { RunGolden(t, LockOrder, "lockorder") }
func TestCrossSpaceGolden(t *testing.T) { RunGolden(t, CrossSpace, "crossspace") }

// TestCrossSpaceFieldForm covers the in-package `in.space != other.space`
// guard spelling used by pipeline's own Instance methods.
func TestCrossSpaceFieldForm(t *testing.T) { RunGolden(t, CrossSpace, "pipeline") }
func TestHotPathGolden(t *testing.T)       { RunGolden(t, HotPath, "hotpath") }
func TestRenameSyncGolden(t *testing.T)    { RunGolden(t, RenameSync, "renamesync") }

// TestSuppressionRespected expects zero findings from a fixture whose
// violations all carry documented suppressions (line-above, trailing, and
// function-scope forms).
func TestSuppressionRespected(t *testing.T) { RunGolden(t, RenameSync, "suppress") }

// TestSuppressionReasonRequired checks that a reason-less directive keeps
// the violation alive and is itself reported, and that a directive naming
// an unknown check is reported.
func TestSuppressionReasonRequired(t *testing.T) {
	ld := NewFixtureLoader("testdata/src")
	pkg, err := ld.Load("suppressbad")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	findings, err := Run(pkg, []*Analyzer{RenameSync})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var gotViolations, gotNoReason, gotUnknown int
	for _, f := range findings {
		switch {
		case f.Check == "renamesync":
			gotViolations++
		case f.Check == "ignore" && strings.Contains(f.Message, "non-empty reason"):
			gotNoReason++
		case f.Check == "ignore" && strings.Contains(f.Message, "unknown check"):
			gotUnknown++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if gotViolations != 2 {
		t.Errorf("got %d surviving renamesync findings, want 2 (reason-less and mistyped directives must not suppress)", gotViolations)
	}
	if gotNoReason != 1 {
		t.Errorf("got %d missing-reason findings, want 1", gotNoReason)
	}
	if gotUnknown != 1 {
		t.Errorf("got %d unknown-check findings, want 1", gotUnknown)
	}
}

// TestRepoClean runs every analyzer over the whole module, mirroring the
// CI buglint gate: the tree must stay free of unsuppressed findings.
func TestRepoClean(t *testing.T) {
	root := filepath.Join("..", "..")
	dirs, err := ExpandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, dir := range dirs {
		pkg, err := ld.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		findings, err := Run(pkg, Analyzers())
		if err != nil {
			t.Fatalf("run %s: %v", dir, err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}

// TestExpandPatterns spot-checks pattern expansion against this package.
func TestExpandPatterns(t *testing.T) {
	dirs, err := ExpandPatterns([]string{"."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(dirs) != 1 {
		t.Fatalf("got %d dirs, want 1", len(dirs))
	}
	rec, err := ExpandPatterns([]string{filepath.Join("..", "..") + "/..."})
	if err != nil {
		t.Fatalf("expand recursive: %v", err)
	}
	foundSelf, foundFixture := false, false
	for _, d := range rec {
		if strings.HasSuffix(d, filepath.Join("internal", "analysis")) {
			foundSelf = true
		}
		if strings.Contains(d, "testdata") {
			foundFixture = true
		}
	}
	if !foundSelf {
		t.Errorf("recursive expansion missed internal/analysis: %v", rec)
	}
	if foundFixture {
		t.Errorf("recursive expansion descended into testdata: %v", rec)
	}
}
