package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write lays out a file under dir, creating parents.
func write(t *testing.T, dir, rel, content string) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func vet(t *testing.T, root string, patterns ...string) []string {
	t.Helper()
	dirs, err := expand(root, patterns)
	if err != nil {
		t.Fatal(err)
	}
	var diags []string
	for _, d := range dirs {
		ds, err := checkDir(root, d)
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, ds...)
	}
	return diags
}

// TestViolationsFlagged builds a toy module with one legal and one
// illegal core import and checks only the illegal one is reported,
// with a file:line diagnostic.
func TestViolationsFlagged(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module tanglefind\n\ngo 1.24\n")
	// The facade may import core.
	write(t, root, "facade.go", "package tanglefind\n\nimport _ \"tanglefind/internal/core\"\n")
	// So may the differential harness.
	write(t, root, "internal/netlist/deltatest/d.go", "package deltatest\n\nimport _ \"tanglefind/internal/core\"\n")
	// A command may not — not even a core subpackage.
	write(t, root, "cmd/bad/main.go", "package main\n\nimport (\n\t_ \"tanglefind/internal/core\"\n\t_ \"tanglefind/internal/core/sub\"\n)\n")
	// Other internal imports stay unrestricted.
	write(t, root, "cmd/ok/main.go", "package main\n\nimport _ \"tanglefind/internal/netlist\"\n")
	// testdata is skipped entirely.
	write(t, root, "cmd/bad/testdata/x.go", "package x\n\nimport _ \"tanglefind/internal/core\"\n")

	diags := vet(t, root, "./...")
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.HasPrefix(d, "cmd/bad/main.go:") {
			t.Errorf("diagnostic outside cmd/bad: %s", d)
		}
		if !strings.Contains(d, "use the tanglefind facade") {
			t.Errorf("diagnostic lacks the fix hint: %s", d)
		}
	}
}

// TestNonRecursivePattern: ./dir checks one package, not its subtree.
func TestNonRecursivePattern(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module tanglefind\n")
	write(t, root, "cmd/a/main.go", "package main\n\nimport _ \"tanglefind/internal/core\"\n")
	write(t, root, "cmd/a/sub/s.go", "package sub\n\nimport _ \"tanglefind/internal/core\"\n")

	if got := vet(t, root, "./cmd/a"); len(got) != 1 {
		t.Fatalf("./cmd/a: want 1 diagnostic, got %v", got)
	}
	if got := vet(t, root, "./cmd/a/..."); len(got) != 2 {
		t.Fatalf("./cmd/a/...: want 2 diagnostics, got %v", got)
	}
}

// TestRepositoryIsClean runs the real rule over the real repository:
// the layering invariant gtlvet exists to enforce must hold in-tree.
func TestRepositoryIsClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if diags := vet(t, root, "./..."); len(diags) != 0 {
		t.Fatalf("layering violations in the repository:\n%s", strings.Join(diags, "\n"))
	}
}
