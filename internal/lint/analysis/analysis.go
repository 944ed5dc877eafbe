// Package analysis is a dependency-free reimplementation of the slice of
// golang.org/x/tools/go/analysis that corona-vet needs: an Analyzer value, a
// per-package Pass, plain Diagnostics, and a driver protocol compatible with
// `go vet -vettool` (see unitchecker.go). The build environment for this
// repository is intentionally hermetic — no module downloads — so the
// framework lives in-tree; the surface mirrors x/tools closely enough that an
// analyzer written here ports to the upstream API by changing one import.
//
// One extension carries repo-specific policy: allow directives. A diagnostic
// is suppressed by a comment of the form `//lint:allow <analyzer> <reason>`
// on the reported line or the line directly above it. The reason is
// mandatory; a directive without one, or one naming an analyzer that does not
// exist, is itself a diagnostic, so the escape hatch cannot silently rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named invariant check run over a single typechecked
// package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, allow directives, and the
	// -<name>=false disable flag. It must look like an identifier.
	Name string
	// Doc is the one-paragraph description printed by corona-vet help and
	// docs/LINTING.md's catalog.
	Doc string
	// Run performs the check, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass provides one analyzer with a single typechecked package and collects
// its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ReadRepoFile reads a file by path relative to the repository root
	// (the directory holding go.mod). Analyzers that cross-check source
	// against checked-in documentation — faultpoint and docs/OPERATIONS.md —
	// use it so the test harness can substitute a fixture tree. It returns
	// an error when no repository root is identifiable.
	ReadRepoFile func(rel string) ([]byte, error)

	diagnostics []Diagnostic
}

// Report records one finding.
func (p *Pass) Report(d Diagnostic) { p.diagnostics = append(p.diagnostics, d) }

// Reportf records one finding with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Several analyzers
// scope themselves to production code: tests legitimately poke lifecycle
// internals and build literals.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return isTestFilename(p.Fset.Position(pos).Filename)
}

func isTestFilename(name string) bool {
	const suffix = "_test.go"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}

// NormalizePkgPath strips the decorations go vet adds to test-variant
// package paths — the " [pkg.test]" suffix of a test build and the "_test"
// suffix of an external test package — so package-scoped checks treat every
// build variant of a package alike.
func NormalizePkgPath(pkgPath string) string {
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	return strings.TrimSuffix(pkgPath, "_test")
}

// A SuiteDiagnostic is a Diagnostic tagged with the analyzer that produced
// it, as returned by RunSuite.
type SuiteDiagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// RunSuite runs the given analyzers over one typechecked package, applies
// allow-directive filtering, and appends directive-hygiene findings (unknown
// analyzer names, missing reasons). knownNames is the full set of analyzer
// names a directive may legally reference — the complete suite, even when
// only a subset runs (the test harness runs analyzers one at a time).
func RunSuite(analyzers []*Analyzer, knownNames map[string]bool, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, readRepoFile func(string) ([]byte, error)) ([]SuiteDiagnostic, error) {
	allows, hygiene := indexAllows(fset, files, knownNames)
	var out []SuiteDiagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:     a,
			Fset:         fset,
			Files:        files,
			Pkg:          pkg,
			TypesInfo:    info,
			ReadRepoFile: readRepoFile,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
		for _, d := range pass.diagnostics {
			if allows.suppressed(a.Name, fset.Position(d.Pos)) {
				continue
			}
			out = append(out, SuiteDiagnostic{Analyzer: a.Name, Pos: d.Pos, Message: d.Message})
		}
	}
	return append(out, hygiene...), nil
}
