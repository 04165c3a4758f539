package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
)

// Options configures one lint run.
type Options struct {
	// Dir is the module root (where go.mod lives). Defaults to ".".
	Dir string
	// Patterns are `go list` package patterns ("./..."), or paths of
	// directories holding loose .go files (fixtures under testdata/, which
	// `go list` refuses to enumerate). The two kinds can be mixed.
	Patterns []string
	// Analyzers is the registry to run; Analyzers() when empty.
	Analyzers []*Analyzer
	// Log receives progress/diagnostic output; discarded when nil.
	Log io.Writer
	// CacheDir enables the on-disk fact cache (see cache.go): packages
	// whose sources and transitive dependency summaries are unchanged are
	// served from it instead of being re-analyzed. Empty disables caching.
	CacheDir string
	// Stats, when non-nil, receives per-run cache counters.
	Stats *RunStats
	// Jobs is the number of packages analyzed concurrently in module mode.
	// Values below 2 run sequentially. Output is byte-identical for every
	// value: packages are scheduled in dependency order and findings,
	// stats, and cache entries are assembled in `go list -deps` order.
	Jobs int
}

// RunStats reports what one run actually analyzed.
type RunStats struct {
	// Packages is the number of module packages considered (targets plus
	// their module dependencies). Fixture directories are not counted.
	Packages int
	// Reanalyzed is the number of packages parsed, summarized, and (when
	// targeted) linted this run.
	Reanalyzed int
	// CacheHits is the number of packages served entirely from the fact
	// cache.
	CacheHits int
	// ReanalyzedPkgs lists the import paths behind Reanalyzed, in
	// processing order.
	ReanalyzedPkgs []string
}

// Run loads every package matched by opts.Patterns, type-checks it, runs
// the analyzer registry, and returns the surviving (unsuppressed) findings
// sorted by position. Type-check errors are tolerated — analyzers run with
// partial information — but unreadable patterns are reported as errors.
func Run(opts Options) ([]Finding, error) {
	if opts.Dir == "" {
		opts.Dir = "."
	}
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	if len(opts.Analyzers) == 0 {
		opts.Analyzers = Analyzers()
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}

	var dirPatterns, listPatterns []string
	for _, p := range opts.Patterns {
		if isGoFileDir(opts.Dir, p) {
			dirPatterns = append(dirPatterns, p)
		} else {
			listPatterns = append(listPatterns, p)
		}
	}

	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		dir:     opts.Dir,
		source:  importer.ForCompiler(fset, "source", nil),
		checked: map[string]*types.Package{},
	}

	store := cfg.NewStore()
	var findings []Finding
	if len(listPatterns) > 0 {
		mod, err := ld.runModule(listPatterns, opts, store)
		if err != nil {
			return nil, err
		}
		findings = append(findings, mod...)
	}
	for _, d := range dirPatterns {
		cp, err := ld.loadDir(d)
		if err != nil {
			return nil, err
		}
		if len(cp.parseBad) == 0 {
			summarizePackage(cp, store)
		}
		findings = append(findings, lintPackage(cp, opts.Analyzers, store)...)
	}
	findings = relativize(findings, opts.Dir)
	sortFindings(findings)
	return findings, nil
}

// checkedPackage is one parsed and (best-effort) type-checked package.
type checkedPackage struct {
	fset    *token.FileSet
	path    string
	name    string
	files   []*ast.File
	src     map[string][]byte // filename -> raw bytes, for text edits
	pkg     *types.Package
	info    *types.Info
	typeErr []error
	// parseBad holds positioned findings for files that failed to parse;
	// when non-empty the package is reported as broken instead of being
	// analyzed (see analyzer "parse").
	parseBad []Finding
	// graph is the package call graph, built by summarizePackage; nil for
	// packages that were never summarized (parse failures).
	graph *callgraph.Graph
}

// lintPackage runs every analyzer over pkg and filters the findings
// through the package's //pacor:allow directives. A package that failed
// to parse reports its parse findings and nothing else — analyzers over a
// half-parsed package would only add noise.
func lintPackage(pkg *checkedPackage, analyzers []*Analyzer, store *cfg.Store) []Finding {
	if len(pkg.parseBad) > 0 {
		return pkg.parseBad
	}
	res := &ipResolver{info: pkg.info, graph: pkg.graph, store: store, active: map[*ast.FuncLit]bool{}}
	// Directive tables per file.
	allow := map[string]fileDirectives{} // filename -> directives
	hot := map[*ast.FuncDecl]bool{}
	var findings []Finding
	for _, f := range pkg.files {
		d := parseDirectives(pkg.fset, f)
		name := pkg.fset.Position(f.Pos()).Filename
		allow[name] = d
		for _, bad := range d.unjustified {
			findings = append(findings, Finding{
				Pos:      pkg.fset.Position(bad.pos),
				Analyzer: "directive",
				Message:  "//pacor:allow needs a justification: //pacor:allow <analyzer> <reason>",
			})
		}
		for fn := range hotFuncs(pkg.fset, f) {
			hot[fn] = true
		}
	}

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.fset,
			Files:    pkg.files,
			PkgPath:  pkg.path,
			PkgName:  pkg.name,
			Pkg:      pkg.pkg,
			Info:     pkg.info,
			hot:      hot,
			src:      pkg.src,
			ip:       res,
			report: func(f Finding) {
				if allow[f.Pos.Filename].suppressed(f.Analyzer, f.Pos.Line) {
					return
				}
				findings = append(findings, f)
			},
		}
		a.Run(pass)
	}
	return findings
}

// relativize rewrites absolute finding paths relative to dir for stable,
// readable output.
func relativize(fs []Finding, dir string) []Finding {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return fs
	}
	for i := range fs {
		if rel, err := filepath.Rel(abs, fs[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			fs[i].Pos.Filename = rel
		}
		for j := range fs[i].Fixes {
			edits := fs[i].Fixes[j].Edits
			for k := range edits {
				if rel, err := filepath.Rel(abs, edits[k].File); err == nil && !strings.HasPrefix(rel, "..") {
					edits[k].File = rel
				}
			}
		}
	}
	return fs
}

// isGoFileDir reports whether pattern names an existing directory (relative
// to dir) that directly contains .go files — the fixture-loading mode.
func isGoFileDir(dir, pattern string) bool {
	p := pattern
	if !filepath.IsAbs(p) {
		p = filepath.Join(dir, p)
	}
	st, err := os.Stat(p)
	if err != nil || !st.IsDir() {
		return false
	}
	matches, _ := filepath.Glob(filepath.Join(p, "*.go"))
	return len(matches) > 0
}

// loader incrementally parses and type-checks packages, serving
// module-internal imports from its own cache and everything else (the
// standard library) from the stdlib source importer. Safe for concurrent
// use by the parallel driver: the checked map is mutex-guarded and the
// stdlib source importer (which keeps its own unguarded package cache) is
// serialized behind srcMu. The shared token.FileSet is internally
// synchronized, and *types.Package values are immutable once checked.
type loader struct {
	fset    *token.FileSet
	dir     string
	source  types.Importer
	mu      sync.Mutex // guards checked
	srcMu   sync.Mutex // serializes source.Import
	checked map[string]*types.Package
}

// Import implements types.Importer: module packages come from the cache
// (they are checked in dependency order before their importers), the
// standard library from the source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	ld.mu.Lock()
	p, ok := ld.checked[path]
	ld.mu.Unlock()
	if ok && p != nil {
		return p, nil
	}
	ld.srcMu.Lock()
	defer ld.srcMu.Unlock()
	return ld.source.Import(path)
}

// listedPackage is the subset of `go list -json` output the driver needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	Deps       []string
	// Error is set by `go list -e` on broken patterns and packages instead
	// of a nonzero exit.
	Error *listError
	// DepsErrors carries the errors of broken imports (e.g. an import of a
	// package whose directory was deleted) — go list -e reports those here
	// rather than in Error.
	DepsErrors []*listError
}

// listError is the Error object in `go list -e -json` output.
type listError struct {
	Err string
}

// modPkg is one module package moving through the incremental pipeline.
type modPkg struct {
	lp       listedPackage
	target   bool
	files    []string          // absolute source paths, go list order
	srcBytes map[string][]byte // path -> raw bytes
	sumHash  string            // hash of the package's encoded summaries
	mu       sync.Mutex        // guards cp (lazy checking of cache hits)
	cp       *checkedPackage   // set once parsed and type-checked
}

// runModule lints the packages matched by patterns, incrementally when a
// fact cache is configured. Packages are processed in dependency order
// (`go list -deps` emits dependencies first); for each one the driver
// computes a content-addressed key from its sources and its dependencies'
// summary hashes, and either replays the cached findings and summaries or
// re-analyzes. Cache-hit packages are not even parsed unless a dirtied
// dependent later needs their type information.
func (ld *loader) runModule(patterns []string, opts Options, store *cfg.Store) ([]Finding, error) {
	// -e tolerates broken packages so parse failures surface as findings
	// rather than aborting the whole run.
	all, err := goList(ld.dir, append([]string{"-e", "-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	targets, err := goList(ld.dir, append([]string{"-e"}, patterns...))
	if err != nil {
		return nil, err
	}
	isTarget := map[string]bool{}
	for _, t := range targets {
		// With -e a broken pattern comes back as a pseudo-package carrying
		// only an Error; report it instead of linting around it.
		if t.Error != nil && len(t.GoFiles) == 0 && t.Dir == "" {
			return nil, fmt.Errorf("lint: %s", t.Error.Err)
		}
		isTarget[t.ImportPath] = true
	}
	if len(isTarget) == 0 {
		// `go list` exits 0 with only a stderr warning when a valid pattern
		// matches no packages; silently linting nothing would report a clean
		// tree that was never inspected.
		return nil, fmt.Errorf("lint: patterns %s matched no packages", strings.Join(patterns, " "))
	}

	var cache *factCache
	if opts.CacheDir != "" {
		cache, err = openFactCache(opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("lint: cache: %v", err)
		}
	}

	var order []*modPkg
	byPath := map[string]*modPkg{}
	for _, lp := range all {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		mp := &modPkg{lp: lp, target: isTarget[lp.ImportPath]}
		order = append(order, mp)
		byPath[lp.ImportPath] = mp
	}

	// Read every package's sources up front, serially: the content keys of
	// all packages must reflect one consistent snapshot of the tree, and
	// doing it here keeps processPkg free of ordering concerns.
	for _, mp := range order {
		if opts.Stats != nil {
			opts.Stats.Packages++
		}
		mp.srcBytes = map[string][]byte{}
		for _, f := range mp.lp.GoFiles {
			p := filepath.Join(mp.lp.Dir, f)
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, fmt.Errorf("lint: %s: %v", mp.lp.ImportPath, err)
			}
			mp.files = append(mp.files, p)
			mp.srcBytes[p] = data
		}
	}

	results := make([]pkgResult, len(order))
	if opts.Jobs > 1 && len(order) > 1 {
		if err := ld.processParallel(order, byPath, opts, store, cache, results); err != nil {
			return nil, err
		}
	} else {
		for i, mp := range order {
			r, err := ld.processPkg(mp, byPath, opts, store, cache)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
	}

	// Assemble findings and stats in `go list -deps` order regardless of
	// the completion order above: byte-identical output for every -j.
	var out []Finding
	for i, mp := range order {
		r := results[i]
		if opts.Stats != nil {
			if r.hit {
				opts.Stats.CacheHits++
			} else {
				opts.Stats.Reanalyzed++
				opts.Stats.ReanalyzedPkgs = append(opts.Stats.ReanalyzedPkgs, mp.lp.ImportPath)
			}
		}
		out = append(out, r.findings...)
	}
	return out, nil
}

// pkgResult is the outcome of processing one module package.
type pkgResult struct {
	findings []Finding
	hit      bool // served entirely from the fact cache
}

// processPkg analyzes one package: cache probe, then parse/type-check,
// summarize, lint (targets only), and cache write-back. Every module
// dependency must have completed first (its sumHash feeds this package's
// cache key); the schedulers below guarantee that in both modes. Safe to
// run concurrently for independent packages.
func (ld *loader) processPkg(mp *modPkg, byPath map[string]*modPkg, opts Options, store *cfg.Store, cache *factCache) (pkgResult, error) {
	key := cacheKey(mp, byPath, opts.Analyzers)

	if cache != nil {
		if ent := cache.load(mp.lp.ImportPath); ent != nil && ent.Key == key && (ent.Linted || !mp.target) {
			if sums, err := cfg.DecodePackage(ent.Summaries); err == nil {
				store.PutAll(sums)
				mp.sumHash = ent.SummaryHash
				r := pkgResult{hit: true}
				if mp.target {
					r.findings = ent.Findings
				}
				return r, nil
			}
		}
	}

	cp, err := ld.ensureChecked(mp, byPath)
	if err != nil {
		return pkgResult{}, fmt.Errorf("lint: %s: %v", mp.lp.ImportPath, err)
	}
	sums := map[string]*cfg.Summary{}
	if len(cp.parseBad) == 0 {
		sums = summarizePackage(cp, store)
	}
	blob, err := cfg.EncodePackage(sums)
	if err != nil {
		return pkgResult{}, fmt.Errorf("lint: %s: %v", mp.lp.ImportPath, err)
	}
	mp.sumHash = hashHex(blob)
	var pkgFindings []Finding
	if mp.target {
		// Relativize before caching so entries stay valid when the
		// checkout moves between runs (CI restores the cache into a
		// fresh workspace).
		pkgFindings = relativize(lintPackage(cp, opts.Analyzers, store), ld.dir)
	}
	if cache != nil {
		ent := &cacheEntry{
			Path:        mp.lp.ImportPath,
			Key:         key,
			SummaryHash: mp.sumHash,
			Summaries:   blob,
			Findings:    pkgFindings,
			Linted:      mp.target,
		}
		if err := cache.save(mp.lp.ImportPath, ent); err != nil {
			return pkgResult{}, fmt.Errorf("lint: cache: %v", err)
		}
	}
	return pkgResult{findings: pkgFindings}, nil
}

// processParallel runs processPkg over the packages with opts.Jobs
// workers, scheduling by module-dependency DAG: a package becomes ready
// when every module dependency has finished, so summaries and summary
// hashes are always in place before a dependent's cache key is computed —
// the same invariant the sequential loop gets from `go list -deps` order.
// Results land in per-index slots; the caller assembles them in order, so
// output does not depend on completion timing. On failure the first error
// in `go list -deps` order wins, again matching sequential behavior.
func (ld *loader) processParallel(order []*modPkg, byPath map[string]*modPkg, opts Options, store *cfg.Store, cache *factCache, results []pkgResult) error {
	n := len(order)
	index := map[*modPkg]int{}
	for i, mp := range order {
		index[mp] = i
	}
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, mp := range order {
		for _, d := range mp.lp.Deps {
			if dep := byPath[d]; dep != nil {
				indeg[i]++
				j := index[dep]
				dependents[j] = append(dependents[j], i)
			}
		}
	}

	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		ready  []int
		done   int
		errs   = make([]error, n)
		failed bool
	)
	for i := range order {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}

	workers := opts.Jobs
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			for {
				for len(ready) == 0 && done < n && !failed {
					cond.Wait()
				}
				if failed || (len(ready) == 0 && done >= n) {
					mu.Unlock()
					return
				}
				i := ready[0]
				ready = ready[1:]
				mu.Unlock()

				r, err := ld.processPkg(order[i], byPath, opts, store, cache)

				mu.Lock()
				if err != nil {
					errs[i] = err
					failed = true
					cond.Broadcast()
					mu.Unlock()
					return
				}
				results[i] = r
				done++
				for _, j := range dependents[i] {
					indeg[j]--
					if indeg[j] == 0 {
						ready = append(ready, j)
					}
				}
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ensureChecked parses and type-checks mp, first ensuring every module
// dependency is checked so the cache importer can serve it. Cache-hit
// packages land here lazily, only when a re-analyzed dependent needs
// their types — under the parallel driver two dependents can race here,
// so mp.mu serializes the check. Locks nest only along dependency edges
// (mp before its deps) and the dependency graph is acyclic, so the
// nesting cannot deadlock.
func (ld *loader) ensureChecked(mp *modPkg, byPath map[string]*modPkg) (*checkedPackage, error) {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	if mp.cp != nil {
		return mp.cp, nil
	}
	for _, dep := range mp.lp.Deps {
		if d := byPath[dep]; d != nil {
			if _, err := ld.ensureChecked(d, byPath); err != nil {
				return nil, err
			}
		}
	}
	if mp.srcBytes == nil {
		mp.srcBytes = map[string][]byte{}
		for _, f := range mp.lp.GoFiles {
			p := filepath.Join(mp.lp.Dir, f)
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			mp.files = append(mp.files, p)
			mp.srcBytes[p] = data
		}
	}
	cp, err := ld.check(mp.lp.ImportPath, mp.lp.Name, mp.files, "", mp.srcBytes)
	if err != nil {
		return nil, err
	}
	mp.cp = cp
	return cp, nil
}

// loadDir parses and type-checks the loose .go files in one directory
// (testdata fixtures). The package path defaults to "fixture/<base>" and
// can be overridden with //pacor:pkgpath.
func (ld *loader) loadDir(dir string) (*checkedPackage, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(ld.dir, dir)
	}
	matches, err := filepath.Glob(filepath.Join(abs, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return ld.checkFiles(matches, "fixture/"+filepath.Base(abs))
}

// checkFiles parses the given files as one package and type-checks them.
func (ld *loader) checkFiles(paths []string, fallbackPath string) (*checkedPackage, error) {
	cp, err := ld.check("", "", paths, fallbackPath, nil)
	return cp, err
}

// check parses paths into one package and type-checks it with the cache
// importer. preloaded, when non-nil, supplies source bytes already read by
// the caller. Type errors are collected, not fatal. Parse errors become
// positioned "parse" findings on the returned package (parseBad) — the
// package is still returned so the driver can report them; only I/O
// failures are fatal.
func (ld *loader) check(importPath, pkgName string, paths []string, fallbackPath string, preloaded map[string][]byte) (*checkedPackage, error) {
	var files []*ast.File
	var parseBad []Finding
	src := map[string][]byte{}
	for _, p := range paths {
		data, ok := preloaded[p]
		if !ok {
			var err error
			data, err = os.ReadFile(p)
			if err != nil {
				return nil, err
			}
		}
		src[p] = data
		f, err := parser.ParseFile(ld.fset, p, data, parser.ParseComments)
		if err != nil {
			parseBad = append(parseBad, parseFindings(ld.fset, p, err)...)
			continue
		}
		files = append(files, f)
	}
	if len(parseBad) > 0 {
		// A half-parsed package cannot be analyzed meaningfully; carry only
		// the parse findings.
		return &checkedPackage{
			fset:     ld.fset,
			path:     importPath,
			name:     pkgName,
			src:      src,
			parseBad: parseBad,
		}, nil
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %v", paths)
	}
	if pkgName == "" {
		pkgName = files[0].Name.Name
	}
	if importPath == "" {
		importPath = fallbackPath
		for _, f := range files {
			if d := parseDirectives(ld.fset, f); d.pkgpath != "" {
				importPath = d.pkgpath
			}
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(importPath, ld.fset, files, info) // errors collected above
	if pkg != nil {
		ld.mu.Lock()
		ld.checked[importPath] = pkg
		ld.mu.Unlock()
	}
	return &checkedPackage{
		fset:    ld.fset,
		path:    importPath,
		name:    pkgName,
		files:   files,
		src:     src,
		pkg:     pkg,
		info:    info,
		typeErr: typeErrs,
	}, nil
}

// parseFindings converts a parse error for file p into positioned findings
// under the "parse" analyzer. A scanner.ErrorList yields one finding per
// error (capped — a mangled file can produce hundreds); anything else
// yields a single finding at the top of the file.
func parseFindings(fset *token.FileSet, p string, err error) []Finding {
	const maxPerFile = 10
	var out []Finding
	if list, ok := err.(scanner.ErrorList); ok {
		for i, e := range list {
			if i == maxPerFile {
				out = append(out, Finding{
					Pos:      e.Pos,
					Analyzer: "parse",
					Message:  fmt.Sprintf("%d more syntax errors in this file omitted", len(list)-maxPerFile),
				})
				break
			}
			out = append(out, Finding{
				Pos:      e.Pos,
				Analyzer: "parse",
				Message:  "syntax error: " + e.Msg,
			})
		}
		return out
	}
	return []Finding{{
		Pos:      token.Position{Filename: p, Line: 1, Column: 1},
		Analyzer: "parse",
		Message:  "syntax error: " + err.Error(),
	}}
}

// goList shells out to `go list -json` and decodes the JSON stream.
func goList(dir string, args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}
