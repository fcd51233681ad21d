package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestPropTaintGolden(t *testing.T) {
	runGolden(t, "proptaint", "repro/internal/fixture", PropTaint)
}

func TestDetOrderGolden(t *testing.T) {
	runGolden(t, "detorder", "repro/internal/fixture", DetOrder)
}

// TestWireCompatClean locks exactly the fixture's live shapes: the
// analyzer must stay silent.
func TestWireCompatClean(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "wirecompat"), "repro/internal/harvestd")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	SetWireLock(WireEntries(pkg))
	defer SetWireLock(nil)
	if findings := RunPackage(pkg, []*Analyzer{WireCompat}); len(findings) != 0 {
		t.Errorf("wirecompat fired on a matching lock: %v", findings)
	}
}

// TestWireCompatDriftGolden is the schema-edit-without-bump scenario: the
// lock records one more StateSnapshot field than the live struct has (as
// if a field was deleted in code) and a bumped version the code does not
// carry. Both watched symbols must fail.
func TestWireCompatDriftGolden(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "wirecompat_drift"), "repro/internal/harvestd")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	lock := WireEntries(pkg)
	key := "repro/internal/harvestd.StateSnapshot"
	lock.Structs[key] = append(lock.Structs[key], "Deprecated bool")
	lock.Consts["repro/internal/harvestd.SnapshotVersion"] = "2"
	SetWireLock(lock)
	defer SetWireLock(nil)
	runGolden(t, "wirecompat_drift", "repro/internal/harvestd", WireCompat)
}

// TestWireCompatMissingLock pins the fail-closed behavior: with no lock
// loaded, watched packages report instead of silently passing.
func TestWireCompatMissingLock(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "wirecompat"), "repro/internal/harvestd")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	SetWireLock(nil)
	findings := RunPackage(pkg, []*Analyzer{WireCompat})
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "not loaded") {
		t.Errorf("expected one not-loaded finding, got %v", findings)
	}
}

// TestWireCompatUnwatchedPackage pins the scoping: the same structs under
// an unwatched import path are nobody's business.
func TestWireCompatUnwatchedPackage(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "wirecompat"), "repro/internal/elsewhere")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	SetWireLock(nil)
	if findings := RunPackage(pkg, []*Analyzer{WireCompat}); len(findings) != 0 {
		t.Errorf("wirecompat fired outside its watch list: %v", findings)
	}
}
