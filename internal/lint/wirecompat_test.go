package lint

import (
	"reflect"
	"strings"
	"testing"
)

func sampleLock() *WireLock {
	l := NewWireLock()
	l.Consts["repro/internal/harvestd.SnapshotVersion"] = "1"
	l.Consts["repro/internal/harvester/binrec.Version"] = "3"
	l.Structs["repro/internal/harvestd.StateSnapshot"] = []string{
		"Version int `json:\"version\"`",
		"Policies map[string]repro/internal/harvestd.Accum `json:\"policies\"`",
	}
	l.Structs["repro/internal/core.Datapoint"] = []string{
		"Reward float64",
		"Propensity float64",
	}
	return l
}

// TestWireLockRoundTrip pins Format/Parse as exact inverses.
func TestWireLockRoundTrip(t *testing.T) {
	l := sampleLock()
	data := FormatWireLock(l)
	back, err := ParseWireLock(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(l, back) {
		t.Errorf("round trip mismatch:\nbefore %#v\nafter  %#v", l, back)
	}
	// Format is deterministic byte for byte.
	if again := FormatWireLock(back); string(again) != string(data) {
		t.Errorf("format not deterministic:\n%s\nvs\n%s", data, again)
	}
}

func TestParseWireLockErrors(t *testing.T) {
	cases := []struct{ name, in, wantErr string }{
		{"bad const", "const x by 2\n", "malformed const"},
		{"bad struct header", "struct Foo\n", "malformed struct header"},
		{"unterminated", "struct a.B {\n\tF int\n", "unterminated struct"},
		{"garbage", "wat\n", "unrecognized line"},
	}
	for _, c := range cases {
		if _, err := ParseWireLock([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

// TestCheckWireBump pins the deliberate-bump rule: a struct edit without
// its guarding constant moving refuses regeneration; with the bump it is
// accepted; structs outside the guard map regenerate freely.
func TestCheckWireBump(t *testing.T) {
	old := sampleLock()

	// Field change, version untouched: refused.
	next := sampleLock()
	next.Structs["repro/internal/harvestd.StateSnapshot"][0] = "Version int8 `json:\"version\"`"
	if bad := CheckWireBump(old, next); len(bad) != 1 || bad[0] != "repro/internal/harvestd.StateSnapshot" {
		t.Errorf("unbumped edit: bad = %v, want the snapshot struct", bad)
	}

	// Same change riding with a version bump: accepted.
	next.Consts["repro/internal/harvestd.SnapshotVersion"] = "2"
	if bad := CheckWireBump(old, next); len(bad) != 0 {
		t.Errorf("bumped edit refused: %v", bad)
	}

	// Datapoint is guarded by the binrec version.
	next = sampleLock()
	next.Structs["repro/internal/core.Datapoint"] = append(
		next.Structs["repro/internal/core.Datapoint"], "Tag string")
	if bad := CheckWireBump(old, next); len(bad) != 1 || bad[0] != "repro/internal/core.Datapoint" {
		t.Errorf("unbumped datapoint edit: bad = %v", bad)
	}
	next.Consts["repro/internal/harvester/binrec.Version"] = "4"
	if bad := CheckWireBump(old, next); len(bad) != 0 {
		t.Errorf("bumped datapoint edit refused: %v", bad)
	}

	// A brand-new struct (not in the old lock) is never refused.
	next = sampleLock()
	next.Structs["repro/internal/obswatch.Incident"] = []string{"Seq int64"}
	if bad := CheckWireBump(old, next); len(bad) != 0 {
		t.Errorf("new struct refused: %v", bad)
	}

	// A guarded struct moved to another package under its own name, with
	// the field line that names it following: no shape changed, accepted.
	old.Structs["repro/internal/harvestd.Accum"] = []string{"N int64 `json:\"n\"`"}
	next = sampleLock()
	next.Structs["repro/internal/ope.Accum"] = []string{"N int64 `json:\"n\"`"}
	next.Structs["repro/internal/harvestd.StateSnapshot"][1] = "Policies map[string]repro/internal/ope.Accum `json:\"policies\"`"
	if bad := CheckWireBump(old, next); len(bad) != 0 {
		t.Errorf("pure move refused: %v", bad)
	}
	// The moved struct is still held to its old shape under its new key.
	next.Structs["repro/internal/ope.Accum"] = []string{"N int32 `json:\"n\"`"}
	if bad := CheckWireBump(old, next); len(bad) != 1 || bad[0] != "repro/internal/ope.Accum" {
		t.Errorf("moved and edited struct: bad = %v", bad)
	}

	// No old lock at all: first generation is free.
	if bad := CheckWireBump(nil, next); bad != nil {
		t.Errorf("first generation refused: %v", bad)
	}
}
