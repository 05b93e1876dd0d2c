// Command gtlvet enforces this repository's layering rule: the
// algorithmic heart of the project, tanglefind/internal/core, may only
// be imported through the root facade (package tanglefind). Everything
// else — commands, examples, serving layers, the client — must consume
// the facade, so the facade stays an honest, complete public surface
// and core remains free to change shape.
//
// A small allowlist exists for packages whose job requires reaching
// under the facade: the facade itself (and its tests) and the delta
// differential harness.
//
// Usage:
//
//	gtlvet ./...            # vet every package under the module root
//	gtlvet ./cmd/... ./examples/...
//
// gtlvet is a vettool in spirit: it prints one file:line diagnostic
// per violation and exits 1 when any are found, 2 on usage or parse
// errors, 0 when the tree is clean. It is pure standard library
// (go/parser in ImportsOnly mode), so it runs in hermetic builds with
// no module cache.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// restricted is the import subtree gated behind the facade.
const restricted = "tanglefind/internal/core"

// allowed lists the module-relative package directories permitted to
// import the restricted subtree. Keep this list short and justified:
//
//	.                         — the facade is the one sanctioned door
//	internal/core             — the subtree may import itself
//	internal/netlist/deltatest — differential harness compares core runs
var allowed = map[string]bool{
	".":                          true,
	"internal/core":              true,
	"internal/netlist/deltatest": true,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gtlvet [packages]\npatterns: ./... or ./dir or ./dir/... (default ./...)")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	dirs, err := expand(root, patterns)
	if err != nil {
		fatal(err)
	}

	var diags []string
	for _, dir := range dirs {
		d, err := checkDir(root, dir)
		if err != nil {
			fatal(err)
		}
		diags = append(diags, d...)
	}
	sort.Strings(diags)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// expand resolves package patterns to the set of directories that
// contain .go files. "./..." recurses; "./dir" is a single package.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "" || pat == "." {
			pat = "."
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		info, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("bad package pattern %q: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("bad package pattern %q: not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// checkDir parses every .go file in dir (imports only) and returns one
// diagnostic per restricted import from a non-allowlisted package.
func checkDir(root, dir string) ([]string, error) {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if allowed[rel] {
		return nil, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var diags []string
	fset := token.NewFileSet()
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if ipath != restricted && !strings.HasPrefix(ipath, restricted+"/") {
				continue
			}
			pos := fset.Position(imp.Path.Pos())
			relFile, _ := filepath.Rel(root, pos.Filename)
			diags = append(diags, fmt.Sprintf("%s:%d: package %s imports %s; use the tanglefind facade (see gtlvet doc for the allowlist)",
				filepath.ToSlash(relFile), pos.Line, rel, ipath))
		}
	}
	return diags, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gtlvet:", err)
	os.Exit(2)
}
