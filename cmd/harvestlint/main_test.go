package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildBinary compiles harvestlint once into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(t.TempDir(), "harvestlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building harvestlint: %v\n%s", err, out)
	}
	return bin
}

// writeModule materializes a throwaway module from path→content pairs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runLint executes the binary in dir and returns stdout, stderr, exit code.
func runLint(t *testing.T, bin, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("running harvestlint: %v", err)
		}
		code = exitErr.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

const goMod = "module tmpmod\n\ngo 1.22\n"

func TestBinaryFlagsViolations(t *testing.T) {
	bin := buildBinary(t)
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"main.go": `package main

import "math/rand"

func main() {
	_ = rand.Intn(10)
}
`,
		"internal/est/est.go": `package est

import "errors"

func work() error { return errors.New("x") }

func drop() {
	work()
}

func divide(pi, p float64) float64 {
	return pi / p
}
`,
	})

	stdout, stderr, code := runLint(t, bin, dir, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d findings, want 3:\n%s", len(lines), stdout)
	}
	// file:line:col: [name] message, with relative paths, sorted by file.
	format := regexp.MustCompile(`^[^:]+:\d+:\d+: \[[a-z]+\] .+$`)
	for _, line := range lines {
		if !format.MatchString(line) {
			t.Errorf("malformed finding line %q", line)
		}
	}
	for i, wantRE := range []string{
		`^internal/est/est\.go:8:2: \[errdrop\] result of work contains an error`,
		`^internal/est/est\.go:12:12: \[propdiv\] division by propensity-like expression "p"`,
		`^main\.go:6:11: \[rawrand\] math/rand\.Intn draws from the process-global source`,
	} {
		if !regexp.MustCompile(wantRE).MatchString(lines[i]) {
			t.Errorf("finding %d = %q, want match for %s", i, lines[i], wantRE)
		}
	}
}

func TestBinaryCleanModule(t *testing.T) {
	bin := buildBinary(t)
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"main.go": `package main

import "fmt"

func main() {
	fmt.Println("clean")
}
`,
	})
	stdout, stderr, code := runLint(t, bin, dir, "./...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean module produced output:\n%s", stdout)
	}
}

func TestBinarySuppression(t *testing.T) {
	bin := buildBinary(t)
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"main.go": `package main

import "math/rand"

func main() {
	//lint:ignore rawrand demo binary suppression
	_ = rand.Intn(10)
	_ = rand.Float64()
}
`,
	})
	stdout, _, code := runLint(t, bin, dir, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, stdout)
	}
	if strings.Count(stdout, "[rawrand]") != 1 || !strings.Contains(stdout, "Float64") {
		t.Errorf("suppression should leave exactly the Float64 finding:\n%s", stdout)
	}
}

// TestBinaryIgnoredFile holds a `//go:build ignore` generator, itself
// package main, next to a library package: the build leaves it out, and so
// must the linter.
func TestBinaryIgnoredFile(t *testing.T) {
	bin := buildBinary(t)
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"tool/tool.go": `package tool

// Answer is what the generator writes.
const Answer = 42
`,
		"tool/gen.go": `//go:build ignore

package main

import "math/rand"

func main() { _ = rand.Intn(10) }
`,
	})
	stdout, stderr, code := runLint(t, bin, dir, "./...")
	if code != 0 || stdout != "" {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
