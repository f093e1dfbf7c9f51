package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, parsed and type-checked package, the unit fed to
// analyzers.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// A Loader parses and type-checks packages. Module-local import paths are
// resolved through Resolve; everything else (the standard library) goes
// through the stdlib source importer, so no export data or external
// tooling is needed.
type Loader struct {
	Fset *token.FileSet
	// Resolve maps an import path to the directory holding its sources.
	// Returning ok=false delegates the path to the stdlib importer.
	Resolve func(path string) (dir string, ok bool)

	std   types.ImporterFrom
	cache map[string]*loadEntry
}

type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader returns a Loader with the given module-local resolver.
func NewLoader(resolve func(path string) (string, bool)) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Resolve: resolve,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:   map[string]*loadEntry{},
	}
}

// ModuleResolver returns a resolver mapping import paths under modPath to
// directories under modDir — the resolver used for analyzing the real tree.
func ModuleResolver(modPath, modDir string) func(string) (string, bool) {
	return func(path string) (string, bool) {
		if path == modPath {
			return modDir, true
		}
		if rest, ok := strings.CutPrefix(path, modPath+"/"); ok {
			return filepath.Join(modDir, filepath.FromSlash(rest)), true
		}
		return "", false
	}
}

// TreeResolver returns a resolver mapping every import path to
// root/<path> — the GOPATH-style layout linttest uses for testdata, where
// stub dependency packages live beside the package under test. Paths that
// do not exist under root fall through to the stdlib importer.
func TreeResolver(root string) func(string) (string, bool) {
	return func(path string) (string, bool) {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load through
// the Loader itself (recursively), anything else through the stdlib source
// importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if dir, ok := l.Resolve(path); ok {
		pkg, err := l.LoadDir(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// LoadDir loads the package rooted at dir under import path pkgPath. The
// contracts are about production code: _test.go files are never parsed.
func (l *Loader) LoadDir(pkgPath, dir string) (*Package, error) {
	if e, ok := l.cache[pkgPath]; ok {
		return e.pkg, e.err
	}
	// Seed the cache entry first so import cycles fail fast instead of
	// recursing forever; genuine cycles are reported by the type checker.
	e := &loadEntry{err: fmt.Errorf("lint: import cycle through %s", pkgPath)}
	l.cache[pkgPath] = e
	e.pkg, e.err = l.parseAndCheck(pkgPath, dir)
	return e.pkg, e.err
}

func (l *Loader) parseAndCheck(pkgPath, dir string) (*Package, error) {
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(pkgPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s: %v", pkgPath, typeErrs[0])
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      l.Fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// goFilesIn lists dir's production Go files: _test.go files (and with them
// every external foo_test package) are left out.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module path and root directory.
func FindModule(dir string) (modPath, modDir string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), dir, nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadPatterns expands go-style package patterns ("./...", "./internal/rtm")
// relative to the module root and loads every matched package.
func (l *Loader) LoadPatterns(modPath, modDir string, patterns []string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := walkPackageDirs(modDir, func(dir string) { dirs[dir] = true }); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(modDir, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			if err := walkPackageDirs(root, func(dir string) { dirs[dir] = true }); err != nil {
				return nil, err
			}
		default:
			dirs[filepath.Join(modDir, filepath.FromSlash(pat))] = true
		}
	}
	var sorted []string
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)
	var pkgs []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(pkgPath, dir)
		if err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", pkgPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkPackageDirs calls fn for every directory under root containing
// non-test Go files, skipping testdata, hidden and underscore directories.
func walkPackageDirs(root string, fn func(dir string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			names, err := goFilesIn(path)
			if err != nil {
				return err
			}
			if len(names) > 0 {
				fn(path)
			}
		}
		return nil
	})
}
