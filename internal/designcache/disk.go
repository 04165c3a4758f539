package designcache

import (
	"encoding/gob"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"

	"repro/internal/pacor"
	"repro/internal/route"
)

// On-disk layout: one gob file per key, named by the RawKey hex, written
// atomically (temp file + rename) so a crashed run never leaves a truncated
// record a later run would choke on. Each record carries its key inside; a
// load rejects a record whose inner key differs from its file name.
// Content-hashed file names make invalidation automatic — a changed design
// or parameter set simply hashes elsewhere.

// diskVersion stamps the record layout; mismatched records are ignored (and
// re-routed), never misread.
const diskVersion = 2

type diskRecord struct {
	Version int
	Raw     Key
	Sig     string
	W, H    int
	Bits    []uint64
	Res     *pacor.Result
	Seed    *route.NegotiationSeed
}

// diskError counts one persistence failure or rejected record.
func (r *Router) diskError() {
	r.mu.Lock()
	r.stats.DiskErrors++
	r.mu.Unlock()
}

// storeDisk persists e into the cache directory.
func (r *Router) storeDisk(e *entry) error {
	if err := os.MkdirAll(r.opts.Dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(r.opts.Dir, e.key.String())
	tmp, err := os.CreateTemp(r.opts.Dir, "tmp-*")
	if err != nil {
		return err
	}
	rec := diskRecord{
		Version: diskVersion,
		Raw:     e.key,
		Sig:     e.sig,
		W:       e.w,
		H:       e.h,
		Bits:    e.bits,
		Res:     e.res,
		Seed:    e.seed,
	}
	encErr := gob.NewEncoder(tmp).Encode(&rec)
	closeErr := tmp.Close()
	if err := errors.Join(encErr, closeErr); err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	return nil
}

// loadDisk loads the record for key, if present and well-formed, as a
// resident entry. A missing file, another layout version or another
// parameter signature returns nil silently; an undecodable record, one
// whose inner key differs from its file name, or one with inconsistent
// fields counts a DiskError and returns nil. Either way the caller routes
// as on a miss.
func (r *Router) loadDisk(key Key, sig string) *entry {
	f, err := os.Open(filepath.Join(r.opts.Dir, key.String()))
	if err != nil {
		return nil
	}
	var rec diskRecord
	decErr := gob.NewDecoder(f).Decode(&rec)
	closeErr := f.Close()
	if err := errors.Join(decErr, closeErr); err != nil {
		r.diskError()
		return nil
	}
	if rec.Version != diskVersion || rec.Sig != sig {
		return nil
	}
	if rec.Raw != key || rec.Res == nil || rec.Seed == nil ||
		rec.W <= 0 || rec.H <= 0 || len(rec.Bits) != (rec.W*rec.H+63)/64 {
		r.diskError()
		return nil
	}
	return &entry{
		key:  key,
		sig:  rec.Sig,
		w:    rec.W,
		h:    rec.H,
		bits: rec.Bits,
		res:  rec.Res,
		seed: rec.Seed,
		size: entrySize(rec.Bits, rec.Res, rec.Seed),
	}
}

// diskParent scans the cache directory for the best warm parent of a design
// the memory store could not serve — the cross-process near-hit path (a
// fresh CLI invocation has an empty memory LRU; its parent lives only on
// disk). A reordered presentation of a cached chip has its own key, so it
// finds the original's record here at Jaccard 1.0. The record named by self,
// the request's own key, is skipped: the exact-hit probe already rejected
// it. Records are visited in sorted file-name order so ties resolve
// deterministically; malformed records count DiskErrors and are skipped.
func (r *Router) diskParent(bits []uint64, w, h int, sig string, self Key) *entry {
	names, err := os.ReadDir(r.opts.Dir)
	if err != nil {
		return nil
	}
	var best *entry
	bestScore := 0.0
	for _, de := range names {
		raw, err := hex.DecodeString(de.Name())
		if err != nil || len(raw) != len(Key{}) {
			continue // temp files and strangers
		}
		var key Key
		copy(key[:], raw)
		if key == self {
			continue
		}
		e := r.loadDisk(key, sig)
		if e == nil || e.w != w || e.h != h || len(e.seed.Rounds) == 0 {
			continue
		}
		if score := jaccard(bits, e.bits); score > bestScore && score >= jaccardMin {
			best, bestScore = e, score
		}
	}
	return best
}
