package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
}

// goModDir returns the root directory of the module that contains dir.
func goModDir(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	gomod := strings.TrimSpace(string(out))
	if err != nil || gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("analyzers: %s is not inside a module", dir)
	}
	return filepath.Dir(gomod), nil
}

// goList runs `go list -export -deps -json` in dir over patterns and
// returns the decoded package stream. -export makes the go command
// write export data for every listed package, which is what lets the
// loader type-check the module with the toolchain's own compiled view
// of dependencies instead of re-parsing the world from source.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Export,Dir,GoFiles,Standard",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analyzers: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analyzers: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportsOf maps each listed package's import path to its export data.
func exportsOf(list []listPkg) map[string]string {
	exports := make(map[string]string, len(list))
	for _, p := range list {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports
}

// exportImporter satisfies go/types.Importer by reading the compiler
// export data `go list -export` produced, keyed by import path.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analyzers: no export data for %q", path)
		}
		return os.Open(file)
	})
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// Load type-checks every non-test file of the packages matching
// patterns (resolved relative to dir, e.g. "./...") and returns them
// as one Module. Test files are not analyzed: the invariants guard
// production paths, and goldens under testdata keep the analyzers
// themselves honest. Whatever the patterns, the whole module and the
// non-test packages of its perfbench harness (a nested module that
// builds against this one) are loaded too, as Users.
func Load(dir string, patterns []string) (*Module, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	modDir, err := goModDir(dir)
	if err != nil {
		return nil, err
	}
	module, err := goList(modDir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	benchDir := filepath.Join(modDir, "perfbench")
	var harness []listPkg
	if _, err := os.Stat(filepath.Join(benchDir, "go.mod")); err == nil {
		if harness, err = goList(benchDir, []string{"./..."}); err != nil {
			return nil, err
		}
	}

	m := &Module{Fset: token.NewFileSet()}
	loaded := map[string]*Package{}
	// check type-checks the non-standard packages of one go list run
	// that keep accepts, each once across runs, against that run's
	// export data.
	check := func(list []listPkg, keep func(listPkg) bool) ([]*Package, error) {
		imp := exportImporter(m.Fset, exportsOf(list))
		sort.Slice(list, func(i, j int) bool { return list[i].ImportPath < list[j].ImportPath })
		var out []*Package
		for _, p := range list {
			if p.Standard || !keep(p) {
				continue
			}
			pkg := loaded[p.ImportPath]
			if pkg == nil {
				var err error
				if pkg, err = checkPackage(m.Fset, imp, p); err != nil {
					return nil, err
				}
				loaded[p.ImportPath] = pkg
			}
			out = append(out, pkg)
		}
		return out, nil
	}
	all := func(listPkg) bool { return true }
	if m.Pkgs, err = check(listed, all); err != nil {
		return nil, err
	}
	if m.Users, err = check(module, all); err != nil {
		return nil, err
	}
	bench, err := check(harness, func(p listPkg) bool {
		return p.Dir == benchDir || strings.HasPrefix(p.Dir, benchDir+string(filepath.Separator))
	})
	if err != nil {
		return nil, err
	}
	m.Users = append(m.Users, bench...)
	return m, nil
}

// checkPackage parses and type-checks the non-test files of p.
func checkPackage(fset *token.FileSet, imp types.Importer, p listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: imp}
	info := newInfo()
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyzers: type-checking %s: %w", p.ImportPath, err)
	}
	return &Package{Path: p.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadDir type-checks a single directory of Go files outside the build
// graph (a testdata fixture package) under an explicit import path, so
// golden tests exercise exactly the scope rules production runs use.
// The fixture may import the standard library and this module's packages.
func LoadDir(dir, asImportPath string) (*Module, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	p := listPkg{Dir: dir, ImportPath: asImportPath}
	imports := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		p.GoFiles = append(p.GoFiles, e.Name())
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		for _, spec := range f.Imports {
			imports[strings.Trim(spec.Path.Value, `"`)] = true
		}
	}
	if len(p.GoFiles) == 0 {
		return nil, fmt.Errorf("analyzers: no Go files in %s", dir)
	}
	var deps []listPkg
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for path := range imports {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		if deps, err = goList(dir, paths); err != nil {
			return nil, err
		}
	}
	fset := token.NewFileSet()
	pkg, err := checkPackage(fset, exportImporter(fset, exportsOf(deps)), p)
	if err != nil {
		return nil, err
	}
	pkgs := []*Package{pkg}
	return &Module{Fset: fset, Pkgs: pkgs, Users: pkgs}, nil
}
