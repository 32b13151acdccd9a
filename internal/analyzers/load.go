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
// themselves honest.
func Load(dir string, patterns []string) (*Module, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	var mod []listPkg
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			mod = append(mod, p)
		}
	}
	sort.Slice(mod, func(i, j int) bool { return mod[i].ImportPath < mod[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	m := &Module{Fset: fset}
	for _, p := range mod {
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
		m.Pkgs = append(m.Pkgs, &Package{
			Path:  p.ImportPath,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return m, nil
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
	fset := token.NewFileSet()
	var files []*ast.File
	imports := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			imports[strings.Trim(spec.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analyzers: no Go files in %s", dir)
	}

	exports := map[string]string{}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		pkgs, err := goList(dir, paths)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	conf := types.Config{Importer: exportImporter(fset, exports)}
	info := newInfo()
	tpkg, err := conf.Check(asImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyzers: type-checking %s: %w", dir, err)
	}
	return &Module{
		Fset: fset,
		Pkgs: []*Package{{Path: asImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}},
	}, nil
}
