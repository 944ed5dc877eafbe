package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// This file implements the (unpublished but stable) command-line protocol
// `go vet -vettool=<tool>` speaks to its tool, the same protocol
// golang.org/x/tools/go/analysis/unitchecker implements:
//
//	tool -V=full       print a version line for go's build cache
//	tool -flags        print the tool's flag definitions as JSON
//	tool [flags] x.cfg analyze the single compilation unit described by the
//	                   JSON config file, writing an empty facts file to
//	                   cfg.VetxOutput and diagnostics to stderr (exit 1 when
//	                   any are found)
//
// go vet drives the tool once per package in the build graph — dependencies
// run in VetxOnly mode, where the tool only writes its (empty) facts file and
// skips parsing — handing each invocation the export data of its imports (PackageFile). The
// suite's analyzers are all package-local, so no facts cross units.
// Everything here sticks to the standard library: the gc export-data importer plus go/parser and go/types replace
// the x/tools loader.

// vetConfig mirrors cmd/go's vetConfig / unitchecker.Config JSON.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vettool built from a suite of analyzers.
// It never returns.
func Main(progname string, analyzers []*Analyzer) {
	if len(os.Args) >= 2 && os.Args[1] == "-V=full" {
		// go's build cache identifies the tool by this line. The content
		// hash makes editing an analyzer invalidate cached vet results —
		// with a fixed version string, a rebuilt corona-vet would keep
		// serving stale verdicts out of GOCACHE.
		fmt.Printf("%s version devel buildID=%s\n", progname, selfHash())
		os.Exit(0)
	}

	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "run the "+a.Name+" analyzer ("+firstSentence(a.Doc)+")")
	}
	printFlags := fs.Bool("flags", false, "print the tool's flags as JSON (for go vet)")
	fs.Parse(os.Args[1:])

	if *printFlags {
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var out []jsonFlag
		fs.VisitAll(func(f *flag.Flag) {
			if f.Name == "flags" {
				return
			}
			out = append(out, jsonFlag{Name: f.Name, Bool: true, Usage: f.Usage})
		})
		data, err := json.Marshal(out)
		if err != nil {
			fatalf(progname, "encoding -flags: %v", err)
		}
		os.Stdout.Write(data)
		os.Exit(0)
	}

	args := fs.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] unit.cfg\n%s is a go vet tool; run it via go vet -vettool=$(which %s) ./...\n", progname, progname, progname)
		os.Exit(2)
	}

	var active []*Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	os.Exit(runUnit(progname, args[0], active, known))
}

// runUnit analyzes one compilation unit and returns the process exit code.
func runUnit(progname, cfgPath string, analyzers []*Analyzer, known map[string]bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatalf(progname, "%v", err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatalf(progname, "cannot decode vet config %s: %v", cfgPath, err)
	}
	if len(cfg.GoFiles) == 0 {
		fatalf(progname, "package %s has no Go files", cfg.ImportPath)
	}
	writeFacts(progname, &cfg)
	if cfg.VetxOnly {
		return 0 // no facts to compute for a dependency
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0 // compiler will report it
			}
			fatalf(progname, "%v", err)
		}
		files = append(files, f)
	}

	tc := &types.Config{
		Importer:  makeImporter(&cfg, fset),
		Sizes:     types.SizesFor("gc", goarch()),
		GoVersion: cfg.GoVersion,
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
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatalf(progname, "typechecking %s: %v", cfg.ImportPath, err)
	}

	diags, err := RunSuite(analyzers, known, fset, files, pkg, info, repoFileReader(cfg.Dir))
	if err != nil {
		fatalf(progname, "%v", err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// writeFacts writes the unit's vetx output file. The suite records no facts,
// but go vet content-addresses the file into the build cache, so it must
// exist even though it is empty.
func writeFacts(progname string, cfg *vetConfig) {
	if cfg.VetxOutput == "" {
		return
	}
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		fatalf(progname, "%v", err)
	}
}

// makeImporter resolves imports through the export data go build already
// produced (cfg.PackageFile), after translating source-level import paths
// through cfg.ImportMap (vendoring, test variants).
func makeImporter(cfg *vetConfig, fset *token.FileSet) types.Importer {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("cannot resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// repoFileReader serves Pass.ReadRepoFile: paths are resolved against the
// nearest enclosing directory containing go.mod, starting from the unit's
// package directory.
func repoFileReader(pkgDir string) func(string) ([]byte, error) {
	return func(rel string) ([]byte, error) {
		dir := pkgDir
		for {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return os.ReadFile(filepath.Join(dir, rel))
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return nil, fmt.Errorf("no go.mod above %s to anchor %s", pkgDir, rel)
			}
			dir = parent
		}
	}
}

// goarch returns the architecture go vet is building for; the tool inherits
// it via the environment like every other toolchain subprocess.
func goarch() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	return runtime.GOARCH
}

// selfHash fingerprints the running executable for the -V=full build ID.
func selfHash() string {
	h := fnv.New64a()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func firstSentence(doc string) string {
	if i := strings.IndexAny(doc, ".\n"); i >= 0 {
		return doc[:i]
	}
	return doc
}

func fatalf(progname, format string, args ...any) {
	fmt.Fprintf(os.Stderr, progname+": "+format+"\n", args...)
	os.Exit(1)
}
