package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// WireCompat diffs the field sets of the versioned wire structs against
// the committed lockfile internal/lint/wire.lock. The federation tier
// (StateSnapshot and the ope.Accum it carries), the gate's /evidence rows
// and the binary record layout (binrec encodes core.Datapoint field by
// field) all promise that a version number fully determines the bytes on
// the wire; editing a struct without bumping its version silently breaks
// mixed-version fleets and archived checkpoints. The analyzer makes the drift
// loud: any difference between the live field set (names, types, tags,
// order) and the lock is a finding, and regenerating the lock refuses to
// absorb a field change whose wire-version constant did not move.
var WireCompat = &Analyzer{
	Name: "wirecompat",
	Run:  runWireCompat,
}

// WireLockPath is the lockfile location relative to the module root.
const WireLockPath = "internal/lint/wire.lock"

// wireWatchItem is one watched wire symbol.
type wireWatchItem struct {
	pkg  string
	name string
	kind string // "struct" or "const"
}

// wireWatch is the watched wire surface: every struct whose encoded form
// crosses a process boundary, plus the version constants guarding them.
var wireWatch = []wireWatchItem{
	{"repro/internal/core", "Context", "struct"},
	{"repro/internal/core", "Datapoint", "struct"},
	{"repro/internal/ope", "Accum", "struct"},
	{"repro/internal/harvestd", "SnapshotCounters", "struct"},
	{"repro/internal/harvestd", "StateSnapshot", "struct"},
	{"repro/internal/abtest", "SequentialState", "struct"},
	{"repro/internal/rollout", "Checkpoint", "struct"},
	{"repro/internal/rollout", "GateDecision", "struct"},
	{"repro/internal/rollout", "GateArm", "struct"},
	{"repro/internal/rollout", "GateCheck", "struct"},
	{"repro/internal/rollout", "StageTransition", "struct"},
	{"repro/internal/harvestd", "FreshnessReport", "struct"},
	{"repro/internal/harvestd", "SourceFreshness", "struct"},
	{"repro/internal/fleet", "FleetFreshness", "struct"},
	{"repro/internal/fleet", "ShardFreshness", "struct"},
	{"repro/internal/obswatch", "Incident", "struct"},
	{"repro/internal/harvestd", "Evidence", "struct"},
	{"repro/internal/harvestd", "EvidenceStamp", "struct"},
	{"repro/internal/harvestd", "PolicyEvidence", "struct"},
	{"repro/internal/ope", "PolicyEstimate", "struct"},
	{"repro/internal/ope", "EstimatorValue", "struct"},
	{"repro/internal/ope", "PolicyDiagnostics", "struct"},
	{"repro/internal/harvestd", "Watermark", "struct"},
	{"repro/internal/harvestd", "SnapshotVersion", "const"},
	{"repro/internal/harvestd", "FreshnessVersion", "const"},
	{"repro/internal/harvestd", "EvidenceVersion", "const"},
	{"repro/internal/harvester/binrec", "Version", "const"},
	{"repro/internal/rollout", "CheckpointVersion", "const"},
	{"repro/internal/obswatch", "IncidentVersion", "const"},
}

// wireVersionOf names the version constant that must move when a struct's
// field set changes. A struct without an entry would regenerate freely;
// the lock diff still gates CI.
var wireVersionOf = map[string]string{
	"repro/internal/core.Context":              "repro/internal/harvester/binrec.Version",
	"repro/internal/core.Datapoint":            "repro/internal/harvester/binrec.Version",
	"repro/internal/ope.Accum":                 "repro/internal/harvestd.SnapshotVersion",
	"repro/internal/harvestd.SnapshotCounters": "repro/internal/harvestd.SnapshotVersion",
	"repro/internal/harvestd.StateSnapshot":    "repro/internal/harvestd.SnapshotVersion",
	"repro/internal/abtest.SequentialState":    "repro/internal/rollout.CheckpointVersion",
	"repro/internal/rollout.Checkpoint":        "repro/internal/rollout.CheckpointVersion",
	"repro/internal/rollout.GateDecision":      "repro/internal/rollout.CheckpointVersion",
	"repro/internal/rollout.GateArm":           "repro/internal/rollout.CheckpointVersion",
	"repro/internal/rollout.GateCheck":         "repro/internal/rollout.CheckpointVersion",
	"repro/internal/rollout.StageTransition":   "repro/internal/rollout.CheckpointVersion",
	"repro/internal/harvestd.FreshnessReport":  "repro/internal/harvestd.FreshnessVersion",
	"repro/internal/harvestd.SourceFreshness":  "repro/internal/harvestd.FreshnessVersion",
	"repro/internal/fleet.FleetFreshness":      "repro/internal/harvestd.FreshnessVersion",
	"repro/internal/fleet.ShardFreshness":      "repro/internal/harvestd.FreshnessVersion",
	"repro/internal/obswatch.Incident":         "repro/internal/obswatch.IncidentVersion",
	"repro/internal/harvestd.Evidence":         "repro/internal/harvestd.EvidenceVersion",
	"repro/internal/harvestd.EvidenceStamp":    "repro/internal/harvestd.EvidenceVersion",
	"repro/internal/harvestd.PolicyEvidence":   "repro/internal/harvestd.EvidenceVersion",
	"repro/internal/ope.PolicyEstimate":        "repro/internal/harvestd.EvidenceVersion",
	"repro/internal/ope.EstimatorValue":        "repro/internal/harvestd.EvidenceVersion",
	"repro/internal/ope.PolicyDiagnostics":     "repro/internal/harvestd.EvidenceVersion",
	"repro/internal/harvestd.Watermark":        "repro/internal/harvestd.EvidenceVersion",
}

// WireLock is the parsed lockfile: fully-qualified symbol → recorded
// shape. Struct shapes are one line per field ("Name type `tag`"), consts
// record the constant's exact value.
type WireLock struct {
	Consts  map[string]string
	Structs map[string][]string
}

// NewWireLock returns an empty lock.
func NewWireLock() *WireLock {
	return &WireLock{Consts: map[string]string{}, Structs: map[string][]string{}}
}

// wireLock is the lock the analyzer checks against; nil means "not
// loaded" and is reported on every watched package so a deleted lockfile
// cannot silently disable the check.
var wireLock *WireLock

// SetWireLock installs the lock the wirecompat analyzer checks against
// (the driver parses it from WireLockPath; tests inject fixtures).
func SetWireLock(l *WireLock) { wireLock = l }

// CurrentWireLock returns the installed lock (nil when none is loaded).
func CurrentWireLock() *WireLock { return wireLock }

// ParseWireLock parses the lockfile format written by FormatWireLock.
func ParseWireLock(data []byte) (*WireLock, error) {
	l := NewWireLock()
	sc := bufio.NewScanner(bytes.NewReader(data))
	var structKey string
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || strings.HasPrefix(text, "#"):
		case structKey != "" && text == "}":
			structKey = ""
		case structKey != "":
			l.Structs[structKey] = append(l.Structs[structKey], text)
		case strings.HasPrefix(text, "const "):
			rest := strings.TrimPrefix(text, "const ")
			key, val, ok := strings.Cut(rest, " = ")
			if !ok {
				return nil, fmt.Errorf("wire.lock line %d: malformed const entry %q", line, text)
			}
			l.Consts[key] = val
		case strings.HasPrefix(text, "struct "):
			rest := strings.TrimPrefix(text, "struct ")
			key, ok := strings.CutSuffix(rest, " {")
			if !ok {
				return nil, fmt.Errorf("wire.lock line %d: malformed struct header %q", line, text)
			}
			structKey = key
			l.Structs[structKey] = []string{}
		default:
			return nil, fmt.Errorf("wire.lock line %d: unrecognized line %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if structKey != "" {
		return nil, fmt.Errorf("wire.lock: unterminated struct block %q", structKey)
	}
	return l, nil
}

// FormatWireLock renders the lock deterministically.
func FormatWireLock(l *WireLock) []byte {
	var b bytes.Buffer
	b.WriteString("# harvestlint wire.lock — locked field sets of the versioned wire structs.\n")
	b.WriteString("# Regenerate with `make wirelock` (harvestlint -wirelock); do not edit by hand.\n")
	b.WriteString("# A diff here must ride with a bump of the guarding wire-version constant.\n")
	keys := make([]string, 0, len(l.Consts))
	for k := range l.Consts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "const %s = %s\n", k, l.Consts[k])
	}
	keys = keys[:0]
	for k := range l.Structs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "struct %s {\n", k)
		for _, f := range l.Structs[k] {
			fmt.Fprintf(&b, "\t%s\n", f)
		}
		b.WriteString("}\n")
	}
	return b.Bytes()
}

// wireFieldLines renders a struct's fields one per line: name, fully
// qualified type, and the raw tag when present. Field order is part of
// the shape — both codecs are order-sensitive.
func wireFieldLines(s *types.Struct, tagOf func(i int) string) []string {
	lines := make([]string, 0, s.NumFields())
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		line := f.Name() + " " + types.TypeString(f.Type(), nil)
		if tag := tagOf(i); tag != "" {
			line += " `" + tag + "`"
		}
		lines = append(lines, line)
	}
	return lines
}

// WireEntries extracts the watched wire shapes defined in one package.
func WireEntries(pkg *Package) *WireLock {
	out := NewWireLock()
	scope := pkg.Types.Scope()
	for _, item := range wireWatch {
		if item.pkg != pkg.Path {
			continue
		}
		obj := scope.Lookup(item.name)
		if obj == nil {
			continue
		}
		key := item.pkg + "." + item.name
		switch item.kind {
		case "const":
			c, ok := obj.(*types.Const)
			if !ok {
				continue
			}
			out.Consts[key] = c.Val().ExactString()
		case "struct":
			s, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			out.Structs[key] = wireFieldLines(s, func(i int) string { return s.Tag(i) })
		}
	}
	return out
}

// MergeWireLock folds src's entries into dst (for whole-module lock
// generation).
func MergeWireLock(dst, src *WireLock) {
	for k, v := range src.Consts {
		dst.Consts[k] = v
	}
	for k, v := range src.Structs {
		dst.Structs[k] = append([]string(nil), v...)
	}
}

// CheckWireBump enforces the deliberate-bump rule during regeneration:
// for every struct whose shape changed between old and next, the guarding
// version constant must have changed too. A struct that moved to another
// package under the same name is held to its old shape, and field lines
// naming it are read at its new path, so a move alone changes no shape.
// It returns the offending struct keys, sorted.
func CheckWireBump(old, next *WireLock) []string {
	if old == nil {
		return nil
	}
	moved := wireMoves(old, next)
	prev := make(map[string][]string, len(old.Structs))
	for key, fields := range old.Structs {
		if to, ok := moved[key]; ok {
			key = to
		}
		prev[key] = retypeLines(fields, moved)
	}
	var bad []string
	for key, fields := range next.Structs {
		oldFields, had := prev[key]
		if !had || equalLines(oldFields, fields) {
			continue
		}
		verKey, guarded := wireVersionOf[key]
		if !guarded {
			continue
		}
		if old.Consts[verKey] == next.Consts[verKey] {
			bad = append(bad, key)
		}
	}
	sort.Strings(bad)
	return bad
}

// wireMoves pairs a struct key that left the lock with the key that
// arrived under the same type name, when each side has exactly one.
func wireMoves(old, next *WireLock) map[string]string {
	typeName := func(key string) string { return key[strings.LastIndex(key, ".")+1:] }
	left, arrived := map[string][]string{}, map[string][]string{}
	for key := range old.Structs {
		if _, kept := next.Structs[key]; !kept {
			left[typeName(key)] = append(left[typeName(key)], key)
		}
	}
	for key := range next.Structs {
		if _, had := old.Structs[key]; !had {
			arrived[typeName(key)] = append(arrived[typeName(key)], key)
		}
	}
	moved := map[string]string{}
	for name, from := range left {
		if to := arrived[name]; len(from) == 1 && len(to) == 1 {
			moved[from[0]] = to[0]
		}
	}
	return moved
}

// retypeLines rewrites every whole mention of a moved struct key in the
// field lines to its new key.
func retypeLines(lines []string, moved map[string]string) []string {
	out := append([]string(nil), lines...)
	for from, to := range moved {
		re := regexp.MustCompile(regexp.QuoteMeta(from) + `\b`)
		for i := range out {
			out[i] = re.ReplaceAllLiteralString(out[i], to)
		}
	}
	return out
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// watchedInPackage lists the watch items for one import path.
func watchedInPackage(path string) []wireWatchItem {
	var items []wireWatchItem
	for _, item := range wireWatch {
		if item.pkg == path {
			items = append(items, item)
		}
	}
	return items
}

func runWireCompat(pass *Pass) {
	items := watchedInPackage(pass.Pkg.Path())
	if len(items) == 0 {
		return
	}
	pkgPos := pass.Files[0].Name.Pos()
	if wireLock == nil {
		pass.Reportf(pkgPos,
			"package %s defines watched wire structs but %s is not loaded; regenerate it with harvestlint -wirelock",
			pass.Pkg.Path(), WireLockPath)
		return
	}
	live := WireEntries(&Package{Path: pass.Pkg.Path(), Types: pass.Pkg})
	for _, item := range items {
		key := item.pkg + "." + item.name
		pos := declPos(pass, item.name, pkgPos)
		switch item.kind {
		case "const":
			val, found := live.Consts[key]
			if !found {
				pass.Reportf(pkgPos, "watched wire-version constant %s not found in package", key)
				continue
			}
			locked, inLock := wireLock.Consts[key]
			if !inLock {
				pass.Reportf(pos, "wire-version constant %s is not recorded in %s; regenerate the lock (make wirelock)", key, WireLockPath)
				continue
			}
			if locked != val {
				pass.Reportf(pos,
					"wire-version constant %s = %s but %s records %s; regenerate the lock (make wirelock)",
					key, val, WireLockPath, locked)
			}
		case "struct":
			fields, found := live.Structs[key]
			if !found {
				pass.Reportf(pkgPos, "watched wire struct %s not found in package", key)
				continue
			}
			locked, inLock := wireLock.Structs[key]
			if !inLock {
				pass.Reportf(pos, "wire struct %s is not recorded in %s; regenerate the lock (make wirelock)", key, WireLockPath)
				continue
			}
			if !equalLines(locked, fields) {
				hint := "regenerate the lock (make wirelock)"
				if verKey, guarded := wireVersionOf[key]; guarded {
					hint = fmt.Sprintf("bump %s and regenerate the lock (make wirelock)", verKey)
				}
				pass.Reportf(pos,
					"wire struct %s field set differs from %s (%s); %s",
					key, WireLockPath, wireDiffSummary(locked, fields), hint)
			}
		}
	}
}

// declPos finds the position of a top-level declaration by name, falling
// back to the package clause.
func declPos(pass *Pass, name string, fallback token.Pos) token.Pos {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.Name == name {
						return s.Name.Pos()
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.Name == name {
							return n.Pos()
						}
					}
				}
			}
		}
	}
	return fallback
}

// wireDiffSummary gives a one-clause description of how the field sets
// differ, for actionable messages without dumping both lists.
func wireDiffSummary(locked, live []string) string {
	if len(locked) != len(live) {
		return fmt.Sprintf("%d fields locked, %d live", len(locked), len(live))
	}
	for i := range locked {
		if locked[i] != live[i] {
			return fmt.Sprintf("field %d: locked %q, live %q", i, locked[i], live[i])
		}
	}
	return "unknown difference"
}
