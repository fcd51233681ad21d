package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// want is one expectation parsed from a fixture's `// want "regex"`
// comment: the analyzer must report a finding on that line whose message
// matches the regex. Several quoted regexes on one line mean several
// findings.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants extracts expectations from every fixture file of a loaded
// package by scanning its comments.
func parseWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					if rest[0] != '"' {
						t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					}
					end := strings.Index(rest[1:], `"`)
					if end < 0 {
						t.Fatalf("%s:%d: unterminated want regex", pos.Filename, pos.Line)
					}
					quoted := rest[:end+2]
					rest = strings.TrimSpace(rest[end+2:])
					raw, err := strconv.Unquote(quoted)
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %s: %v", pos.Filename, pos.Line, quoted, err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %s: %v", pos.Filename, pos.Line, quoted, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runGolden loads testdata/src/<dir> as the package pkgPath, runs one
// analyzer through the full driver (so //lint:ignore suppression is
// active), and diffs the findings against the fixture's want comments.
func runGolden(t *testing.T, dir, pkgPath string, a *Analyzer) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", dir), pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	wants := parseWants(t, pkg)
	findings := RunPackage(pkg, []*Analyzer{a})

	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a [%s] finding matching %q, got none", w.file, w.line, a.Name, w.re)
		}
	}
}

func TestRawRandGolden(t *testing.T) {
	runGolden(t, "rawrand", "repro/internal/fixture", RawRand)
}

// TestRawRandApprovedPackage loads the same kind of constructor calls
// under the approved import path: rand.New must pass there while the
// global-source functions stay flagged.
func TestRawRandApprovedPackage(t *testing.T) {
	runGolden(t, "rawrand_approved", "repro/internal/stats", RawRand)
}

// TestRawRandParallelPackage covers the second approved package, the
// deterministic replicate scheduler: rand.New passes under
// repro/internal/parallel, global-source calls do not.
func TestRawRandParallelPackage(t *testing.T) {
	runGolden(t, "rawrand_parallel", "repro/internal/parallel", RawRand)
}

func TestPropDivGolden(t *testing.T) {
	runGolden(t, "propdiv", "repro/internal/fixture", PropDiv)
}

func TestWallTimeGolden(t *testing.T) {
	runGolden(t, "walltime", "repro/internal/des", WallTime)
}

// TestWallTimeObsGolden loads the obs-mode fixture as repro/internal/obs,
// where clock injection is enforced: host-clock reads outside the
// WallClock constructor path are flagged, the constructor and the
// wallClock method are exempt.
func TestWallTimeObsGolden(t *testing.T) {
	runGolden(t, "obswalltime", "repro/internal/obs", WallTime)
}

// TestWallTimeObsFixtureElsewhere reuses the obs fixture under a plain
// import path, where none of its reads are the analyzer's business.
func TestWallTimeObsFixtureElsewhere(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "obswalltime"), "repro/internal/netlb2")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if findings := RunPackage(pkg, []*Analyzer{WallTime}); len(findings) != 0 {
		t.Errorf("walltime fired outside its scoped packages: %v", findings)
	}
}

// TestWallTimeNonSimPackage reuses the walltime fixture under a
// non-simulation import path, where wall-clock reads are legitimate: the
// analyzer must stay silent, so every want comment must fail — assert by
// running the raw analyzer and requiring zero findings.
func TestWallTimeNonSimPackage(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "walltime"), "repro/internal/netlb2")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if findings := RunPackage(pkg, []*Analyzer{WallTime}); len(findings) != 0 {
		t.Errorf("walltime fired outside deterministic packages: %v", findings)
	}
}

func TestErrDropGolden(t *testing.T) {
	runGolden(t, "errdrop", "repro/internal/fixture", ErrDrop)
}

// TestErrDropOutsideInternal reuses the errdrop fixture under a
// non-internal path; the analyzer is scoped to internal/... only.
func TestErrDropOutsideInternal(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "errdrop"), "repro/cmdfixture")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if findings := RunPackage(pkg, []*Analyzer{ErrDrop}); len(findings) != 0 {
		t.Errorf("errdrop fired outside internal/...: %v", findings)
	}
}

// TestMalformedIgnoreDirective checks that a reason-less, unknown-name or
// stale //lint:ignore is itself reported, so directives can never silently
// rot.
func TestMalformedIgnoreDirective(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "badignore"), "repro/internal/fixture")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := RunPackage(pkg, All())
	var msgs []string
	for _, f := range findings {
		msgs = append(msgs, fmt.Sprintf("[%s] %s", f.Analyzer, f.Message))
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "malformed //lint:ignore") {
		t.Errorf("missing malformed-directive finding in:\n%s", joined)
	}
	if !strings.Contains(joined, `unknown analyzer "nosuch"`) {
		t.Errorf("missing unknown-analyzer finding in:\n%s", joined)
	}
	if !strings.Contains(joined, "[lint] stale //lint:ignore: no errdrop finding") {
		t.Errorf("missing stale-directive finding in:\n%s", joined)
	}
}

// TestSortOrder pins the deterministic output ordering.
func TestSortOrder(t *testing.T) {
	fs := []Finding{
		{Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}, Analyzer: "rawrand"},
		{Pos: token.Position{Filename: "a.go", Line: 9, Column: 2}, Analyzer: "propdiv"},
		{Pos: token.Position{Filename: "a.go", Line: 9, Column: 2}, Analyzer: "errdrop"},
		{Pos: token.Position{Filename: "a.go", Line: 3, Column: 7}, Analyzer: "walltime"},
	}
	Sort(fs)
	got := ""
	for _, f := range fs {
		got += fmt.Sprintf("%s:%d:%s ", f.Pos.Filename, f.Pos.Line, f.Analyzer)
	}
	wantOrder := "a.go:3:walltime a.go:9:errdrop a.go:9:propdiv b.go:1:rawrand "
	if got != wantOrder {
		t.Errorf("sort order = %q, want %q", got, wantOrder)
	}
}

// TestMentionsExpr pins the token-boundary matching propdiv's dominance
// heuristic depends on: "p" must not match inside "pi".
func TestMentionsExpr(t *testing.T) {
	cases := []struct {
		hay, needle string
		want        bool
	}{
		{"!(d.Propensity > 0)", "d.Propensity", true},
		{"pi > 0", "p", false},
		{"p > 0", "p", true},
		{"p.Valid()", "p", false},
		{"weights[i] > 0", "weights[i]", true},
		{"x.p > 0", "p", false},
		{"w <= tau", "w", true},
		{"", "p", false},
		{"p > 0", "", false},
	}
	for _, c := range cases {
		if got := mentionsExpr(c.hay, c.needle); got != c.want {
			t.Errorf("mentionsExpr(%q, %q) = %v, want %v", c.hay, c.needle, got, c.want)
		}
	}
}
