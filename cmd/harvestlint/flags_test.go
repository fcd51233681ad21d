package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unsortedModule is a throwaway module with one detorder finding and one
// rawrand finding.
func unsortedModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": goMod,
		"main.go": `package main

import (
	"fmt"
	"math/rand"
)

func main() {
	m := map[string]int{"a": rand.Intn(10)}
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
	})
}

func TestBinaryJSON(t *testing.T) {
	bin := buildBinary(t)
	dir := unsortedModule(t)
	stdout, _, code := runLint(t, bin, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("-json exit = %d\n%s", code, stdout)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d JSON findings, want 2:\n%s", len(findings), stdout)
	}
	byAnalyzer := map[string]bool{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = true
		if f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
	}
	if !byAnalyzer["detorder"] || !byAnalyzer["rawrand"] {
		t.Errorf("want one detorder and one rawrand finding: %v", byAnalyzer)
	}

	// A clean module emits an empty JSON array, not nothing.
	clean := writeModule(t, map[string]string{"go.mod": goMod, "main.go": "package main\n\nfunc main() {}\n"})
	stdout, _, code = runLint(t, bin, clean, "-json", "./...")
	if code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json run: exit=%d output %q", code, stdout)
	}
}

func TestBinaryWirelock(t *testing.T) {
	bin := buildBinary(t)
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"main.go": `package main

func main() {}
`,
	})
	stdout, stderr, code := runLint(t, bin, dir, "-wirelock")
	if code != 0 {
		t.Fatalf("-wirelock: exit=%d\n%s%s", code, stdout, stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, "internal", "lint", "wire.lock"))
	if err != nil {
		t.Fatalf("wire.lock not written: %v", err)
	}
	// No watched packages in a throwaway module: header only.
	if strings.Contains(string(data), "struct ") || strings.Contains(string(data), "const ") {
		t.Errorf("unexpected entries in throwaway lock:\n%s", data)
	}
}
