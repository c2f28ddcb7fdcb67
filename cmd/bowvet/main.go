// Command bowvet is the repo's invariant checker: a multichecker of
// the internal/analysis passes (determinism, hotpathalloc,
// nilguardtrace, locksafe, statecover, resetcover, annotcheck).
//
// Two invocation modes:
//
//	go run ./cmd/bowvet ./...          # standalone, loads packages itself
//	go vet -vettool=bin/bowvet ./...   # driven by the go command
//
// The vettool mode speaks the go command's unitchecker protocol by
// hand (this module deliberately has zero dependencies, so it cannot
// vendor golang.org/x/tools): cmd/go invokes the tool once per package
// with a JSON .cfg file naming the sources and the export data of
// every import, and expects diagnostics on stderr with exit status 2
// (or a JSON object on stdout under -json).
//
// -json is mode-sensitive: under the vettool protocol it emits the
// unitchecker tree the go command expects; standalone it emits a flat
// findings array — [{"file","line","col","pass","message"}, ...] —
// for CI annotators and editor integrations.
//
// Exit status: 0 clean, 1 usage/load failure, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"bow/internal/analysis"
)

func main() {
	// The go command probes its vet tool before use: `-V=full` asks
	// for a version stamp that keys the vet result cache, `-flags`
	// asks which analyzer flags the tool accepts.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		// The go command asks which analyzer flags the tool accepts, as
		// a JSON list; bowvet exposes none to vet (use -pass standalone).
		fmt.Println("[]")
		return
	}
	versionFlag := flag.String("V", "", "if 'full', print version and exit (go command protocol)")
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON on stdout (go command protocol)")
	passFlag := flag.String("pass", "", "comma-separated subset of passes to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bowvet [-pass p1,p2] [package ...]\n   or: go vet -vettool=$(pwd)/bin/bowvet ./...\n\npasses:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *versionFlag != "" {
		printVersion()
		return
	}

	analyzers, err := selectPasses(*passFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bowvet:", err)
		os.Exit(1)
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVetTool(args[0], analyzers, *jsonFlag)
		return
	}
	runStandalone(args, analyzers, *jsonFlag)
}

// printVersion emits the tool stamp the go command hashes into its vet
// cache key. Embedding the binary's own content hash means rebuilding
// bowvet with changed passes invalidates stale vet results.
func printVersion() {
	stamp := "devel"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				stamp = fmt.Sprintf("%x", h.Sum(nil))[:16]
			}
			f.Close()
		}
	}
	fmt.Printf("bowvet version %s\n", stamp)
}

func selectPasses(spec string) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return analysis.Analyzers(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		a := analysis.ByName(strings.TrimSpace(name))
		if a == nil {
			return nil, fmt.Errorf("unknown pass %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// runStandalone loads the named packages (default ./...) with the
// internal loader and checks them all.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, asJSON bool) {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bowvet:", err)
		os.Exit(1)
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.Run(pkg, analyzers)...)
	}
	if asJSON {
		emitFlatJSON(diags)
		return
	}
	emit(diags, nil, false)
}

// emitFlatJSON prints the standalone machine-readable form: a flat,
// position-sorted findings array. Exit 2 when any finding survived, so
// scripted callers get the same verdict as the human-readable mode.
func emitFlatJSON(diags []analysis.Diagnostic) {
	type finding struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Pass    string `json:"pass"`
		Message string `json:"message"`
	}
	sortDiags(diags)
	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, finding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Pass: d.Analyzer, Message: d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(findings); err != nil {
		fatal(err)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

// vetConfig mirrors the JSON the go command writes for its vet tool
// (cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	NonGoFiles  []string
	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// runVetTool handles one `go vet` unit of work.
func runVetTool(cfgPath string, analyzers []*analysis.Analyzer, asJSON bool) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("parsing %s: %v", cfgPath, err))
	}
	// The facts file must exist even though bowvet's passes are
	// fact-free, or the go command reports the tool as misbehaving.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte("bowvet: no facts\n"), 0o666); err != nil {
				fatal(err)
			}
		}
	}
	if cfg.VetxOnly {
		// Dependency visited only for facts; nothing to report.
		writeVetx()
		return
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := analysis.CheckFiles(fset, imp, cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return
		}
		fatal(err)
	}
	ds := analysis.Run(pkg, analyzers)
	writeVetx()
	byPkg := map[string][]analysis.Diagnostic{}
	if len(ds) > 0 {
		byPkg[cfg.ImportPath] = ds
	}
	emit(ds, byPkg, asJSON)
}

// emit prints diagnostics in the requested format and exits non-zero
// when any were found. JSON mode mirrors unitchecker's shape:
// {"pkg": {"analyzer": [{"posn": ..., "message": ...}]}}.
func emit(diags []analysis.Diagnostic, byPkg map[string][]analysis.Diagnostic, asJSON bool) {
	if asJSON {
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		tree := map[string]map[string][]jsonDiag{}
		for path, ds := range byPkg {
			perAnalyzer := map[string][]jsonDiag{}
			for _, d := range ds {
				perAnalyzer[d.Analyzer] = append(perAnalyzer[d.Analyzer], jsonDiag{
					Posn: d.Pos.String(), Message: d.Message,
				})
			}
			tree[path] = perAnalyzer
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(tree); err != nil {
			fatal(err)
		}
		// In JSON mode the go command owns the verdict; report clean exit.
		return
	}
	if len(diags) == 0 {
		return
	}
	sortDiags(diags)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d.String())
	}
	os.Exit(2)
}

func sortDiags(diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bowvet:", err)
	os.Exit(1)
}
