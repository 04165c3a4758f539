package lint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
)

// This file implements the driver's content-addressed fact cache. One
// entry per package, keyed by a hash of everything the package's analysis
// can observe: the cache format version, the toolchain, the analyzer
// registry, the package's own source bytes, and the summary hash of every
// module dependency. The last part gives early cutoff — editing a comment
// in a leaf package changes the leaf's key (it is re-analyzed) but not its
// summaries, so every dependent still hits.

// cacheVersion invalidates all entries when the analysis format changes.
const cacheVersion = "pacorvet-fact-cache-v3"

// cacheEntry is the persisted analysis result of one package.
type cacheEntry struct {
	// Path is the package import path; guards hash-filename collisions.
	Path string
	// Key is the content hash the entry was computed under.
	Key string
	// SummaryHash is the hash of Summaries, folded into dependents' keys.
	SummaryHash string
	// Summaries is the cfg.EncodePackage blob of the package's function
	// summaries.
	Summaries json.RawMessage
	// Findings are the package's surviving findings (module-relative
	// paths); meaningful only when Linted.
	Findings []Finding
	// Linted records whether the package was a lint target when the entry
	// was written. A dependency-only entry can satisfy a dependent's
	// summary needs but not a target's finding needs.
	Linted bool
}

// factCache is an on-disk store of cacheEntry files.
type factCache struct {
	dir string
}

// openFactCache creates dir if needed and returns the cache.
func openFactCache(dir string) (*factCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &factCache{dir: dir}, nil
}

// entryFile maps an import path to its cache filename.
func (c *factCache) entryFile(importPath string) string {
	h := sha256.Sum256([]byte(importPath))
	return filepath.Join(c.dir, hex.EncodeToString(h[:])[:24]+".json")
}

// load returns the entry for importPath, or nil when absent or
// unreadable (a corrupt entry is just a miss).
func (c *factCache) load(importPath string) *cacheEntry {
	data, err := os.ReadFile(c.entryFile(importPath))
	if err != nil {
		return nil
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Path != importPath {
		return nil
	}
	return &e
}

// save persists the entry for importPath.
func (c *factCache) save(importPath string, e *cacheEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return os.WriteFile(c.entryFile(importPath), data, 0o644)
}

// hashHex returns the hex SHA-256 of data.
func hashHex(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// cacheKey computes mp's content-addressed key. Module dependencies must
// already carry their summary hash (the caller processes packages in
// dependency order).
func cacheKey(mp *modPkg, byPath map[string]*modPkg, analyzers []*Analyzer) string {
	var b bytes.Buffer
	b.WriteString(cacheVersion)
	b.WriteByte('\n')
	b.WriteString(runtime.Version())
	b.WriteByte('\n')
	for _, a := range analyzers {
		b.WriteString(a.Name)
		b.WriteByte(' ')
	}
	b.WriteByte('\n')
	b.WriteString(mp.lp.ImportPath)
	b.WriteByte('\n')
	for _, f := range mp.lp.GoFiles {
		b.WriteString(f)
		b.WriteByte('\n')
		b.WriteString(hashHex(mp.srcBytes[filepath.Join(mp.lp.Dir, f)]))
		b.WriteByte('\n')
	}
	for _, d := range mp.lp.Deps {
		dep := byPath[d]
		if dep == nil {
			continue // standard library: covered by the toolchain version
		}
		b.WriteString(d)
		b.WriteByte('=')
		b.WriteString(dep.sumHash)
		b.WriteByte('\n')
	}
	return hashHex(b.Bytes())
}
