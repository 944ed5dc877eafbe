// Package linttest is an analysistest-style harness for the corona-vet
// analyzer suite. A test names fixture packages under
// internal/lint/testdata/src/<pkgpath>/; the harness parses and typechecks
// each fixture (resolving every import from the same testdata tree, so the
// fixtures shadow the standard library with small stubs and stay hermetic),
// runs one analyzer through the same RunSuite path the vettool uses —
// allow-directive filtering and hygiene findings included — and diffs the
// resulting diagnostics against `// want "regexp"` comments in the fixture
// source.
//
// Expectations follow the x/tools analysistest convention: a comment
//
//	time.Now() // want `time\.Now is wall-clock`
//
// asserts exactly one diagnostic on that line whose message matches the
// regular expression (several quoted or backquoted patterns assert several
// diagnostics). A line without a want comment asserts silence; both missed
// and unexpected diagnostics fail the test.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"corona/internal/lint"
	"corona/internal/lint/analysis"
)

// srcRoot is the fixture tree, relative to the directory the lint tests run
// in (internal/lint).
const srcRoot = "testdata/src"

// Run loads each fixture package, runs the analyzer over it, and reports any
// divergence from the package's want comments as test errors.
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, pkgPath := range pkgPaths {
		t.Run(pkgPath, func(t *testing.T) {
			t.Helper()
			runOne(t, a, pkgPath)
		})
	}
}

func runOne(t *testing.T, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	ld := &loader{fset: token.NewFileSet(), loaded: make(map[string]*fixturePkg)}
	target, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}

	diags, err := analysis.RunSuite([]*analysis.Analyzer{a}, lint.Names(),
		ld.fset, target.files, target.pkg, target.info, fixtureRepoReader(pkgPath))
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
	}

	wants := parseWants(t, ld.fset, target.files)
	checkDiagnostics(t, ld.fset, diags, wants)
}

// fixtureRepoReader anchors Pass.ReadRepoFile at the fixture's module root,
// testdata/src/<first path segment>/ — fixture trees carry their own
// docs/OPERATIONS.md for the faultpoint cross-check.
func fixtureRepoReader(pkgPath string) func(string) ([]byte, error) {
	first := pkgPath
	if i := strings.IndexByte(first, '/'); i >= 0 {
		first = first[:i]
	}
	return func(rel string) ([]byte, error) {
		return os.ReadFile(filepath.Join(srcRoot, first, filepath.FromSlash(rel)))
	}
}

// fixturePkg is one typechecked fixture package.
type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader typechecks fixture packages, resolving imports recursively from the
// testdata tree. It doubles as the types.Importer for those packages.
type loader struct {
	fset    *token.FileSet
	loaded  map[string]*fixturePkg
	loading []string // import stack, for cycle reporting
}

func (ld *loader) Import(path string) (*types.Package, error) {
	p, err := ld.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (ld *loader) load(pkgPath string) (*fixturePkg, error) {
	if p, ok := ld.loaded[pkgPath]; ok {
		return p, nil
	}
	for _, active := range ld.loading {
		if active == pkgPath {
			return nil, fmt.Errorf("import cycle through %s", pkgPath)
		}
	}
	ld.loading = append(ld.loading, pkgPath)
	defer func() { ld.loading = ld.loading[:len(ld.loading)-1] }()

	dir := filepath.Join(srcRoot, filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %s: %w (imports must resolve inside %s)", pkgPath, err, srcRoot)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic Files order, like the go tool's
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture package %s has no Go files", pkgPath)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{Importer: ld}
	pkg, err := tc.Check(pkgPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking fixture %s: %w", pkgPath, err)
	}
	p := &fixturePkg{pkg: pkg, files: files, info: info}
	ld.loaded[pkgPath] = p
	return p, nil
}

// A want is one expected diagnostic: a compiled message pattern at a
// file:line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	pattern string
	matched bool
}

// wantRE extracts the expectation list from a comment: `// want "p1" "p2"`
// or backquoted patterns.
var (
	wantMarkerRE  = regexp.MustCompile(`//\s*want\s+(.*)$`)
	wantPatternRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := wantMarkerRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				specs := wantPatternRE.FindAllStringSubmatch(m[1], -1)
				if len(specs) == 0 {
					t.Errorf("%s: want comment carries no quoted pattern", posn)
					continue
				}
				for _, spec := range specs {
					pattern := spec[1]
					if spec[2] != "" || pattern == "" {
						pattern = spec[2]
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", posn, pattern, err)
						continue
					}
					wants = append(wants, &want{file: posn.Filename, line: posn.Line, re: re, pattern: pattern})
				}
			}
		}
	}
	return wants
}

func checkDiagnostics(t *testing.T, fset *token.FileSet, diags []analysis.SuiteDiagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		if !claimWant(wants, posn, d.Message) {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", posn, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}

// claimWant marks the first unmatched want on the diagnostic's line whose
// pattern matches the message.
func claimWant(wants []*want, posn token.Position, message string) bool {
	for _, w := range wants {
		if !w.matched && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}
