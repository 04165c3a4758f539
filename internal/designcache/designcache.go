package designcache

import (
	"sync"

	"repro/internal/pacor"
	"repro/internal/route"
	"repro/internal/valve"
)

// Options tune a Router. The zero value of every field selects a default.
type Options struct {
	// MaxEntries bounds the resident entry count (default 64; negative =
	// unbounded).
	MaxEntries int
	// MaxBytes bounds the resident size estimate across results and seeds
	// (default 256 MiB; negative = unbounded).
	MaxBytes int64
	// Dir, when non-empty, persists entries to disk (one file per key,
	// gob-encoded) and consults the directory on memory misses.
	Dir string
	// RouteFn replaces pacor.Route (tests substitute instrumented routers).
	RouteFn func(*valve.Design, pacor.Params) (*pacor.Result, error)
}

// Stats are a Router's cumulative counters (guarded by the Router's lock;
// read them via Snapshot).
type Stats struct {
	// Hits counts exact key hits served from memory.
	Hits int
	// DiskHits counts exact hits loaded from the persistence directory.
	DiskHits int
	// NearHits counts misses routed with a warm parent seed.
	NearHits int
	// Misses counts cold routes (no parent above the threshold).
	Misses int
	// SeededEdges and SeededHits accumulate the negotiation-layer counters
	// of every near-hit route (route.NegotiateStats).
	SeededEdges int
	SeededHits  int
	// Evictions counts entries dropped to honor MaxEntries/MaxBytes.
	Evictions int
	// DiskErrors counts persistence failures and rejected records (the
	// cache degrades to memory-only rather than failing the route).
	DiskErrors int
}

// entry is one resident design: its key, geometry bitmap, routed result,
// and the captured negotiation transcript that seeds near-hit children.
// Entries are immutable once inserted; the LRU list is threaded through
// prev/next (head = most recent).
type entry struct {
	key  Key
	sig  string
	w, h int
	bits []uint64
	res  *pacor.Result
	seed *route.NegotiationSeed
	size int64

	prev, next *entry
}

// Router is the cross-run cache: Route serves exact hits from the store and
// warm-seeds near hits. Safe for concurrent use; concurrent identical misses
// each route.
type Router struct {
	opts Options

	mu      sync.Mutex
	entries map[Key]*entry
	head    *entry // LRU list, most recent first
	tail    *entry
	count   int
	bytes   int64
	stats   Stats
}

// DefaultMaxEntries and DefaultMaxBytes bound the resident store when
// Options leave them zero. 64 full S-series results with seeds measure well
// under the byte bound; the byte bound is the real guard on XL designs.
const (
	DefaultMaxEntries = 64
	DefaultMaxBytes   = 256 << 20
)

// jaccardMin is the minimum valve∪obstacle-cell overlap for a cached design
// to act as a near-hit warm parent.
const jaccardMin = 0.5

// New returns a Router with o's bounds. Dir, when set, is created lazily on
// first persist.
func New(o Options) *Router {
	if o.MaxEntries == 0 {
		o.MaxEntries = DefaultMaxEntries
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.RouteFn == nil {
		o.RouteFn = pacor.Route
	}
	return &Router{opts: o, entries: make(map[Key]*entry)}
}

// Snapshot returns the current counters.
func (r *Router) Snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Len returns the resident entry count and byte estimate.
func (r *Router) Len() (entries int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count, r.bytes
}

// Route routes d under params through the cache. An exact hit returns the
// stored result; the caller must treat it as read-only — it is shared with
// the cache and with concurrent callers. A near hit routes with the best
// cached parent's transcript as params.Negotiate.Seed; a miss routes cold.
// Every computed route is captured and inserted. The cache overwrites
// params.Negotiate.Seed and Capture; everything else passes through, and
// because seeding never changes routed output (route/seed.go), the result
// is byte-identical to an uncached pacor.Route for every hit class.
func (r *Router) Route(d *valve.Design, params pacor.Params) (*pacor.Result, error) {
	sig := ParamsSig(params)
	key := RawKey(d, sig)

	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.touch(e)
		r.stats.Hits++
		r.mu.Unlock()
		return e.res, nil
	}
	r.mu.Unlock()
	return r.routeSlow(d, params, sig, key)
}

// routeSlow performs the miss path: validation, disk probe, parent
// selection, seeded or cold route, capture, insert, persist. It runs outside
// the lock (the lock is taken only around store operations), so concurrent
// requests route in parallel. Validation comes first because cellBits and
// Verify index by valve position; the memory-hit path needs none, since a
// key hit is byte-identical to a design that validated on its miss.
func (r *Router) routeSlow(d *valve.Design, params pacor.Params, sig string, key Key) (*pacor.Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if r.opts.Dir != "" {
		// A disk record is bytes from outside this process: serve it only if
		// its result passes the design-rule check on this design.
		if e := r.loadDisk(key, sig); e != nil {
			if pacor.Verify(d, e.res) == nil {
				r.mu.Lock()
				r.insertLocked(e)
				r.stats.DiskHits++
				r.mu.Unlock()
				return e.res, nil
			}
			r.diskError()
		}
	}

	bits := cellBits(d)
	parent := r.bestParent(bits, d.W, d.H, sig)
	if parent == nil && r.opts.Dir != "" {
		parent = r.diskParent(bits, d.W, d.H, sig, key)
	}
	capture := &route.NegotiationSeed{}
	params.Negotiate.Seed, params.Negotiate.Capture = nil, capture
	if parent != nil {
		params.Negotiate.Seed = parent.seed
	}

	res, err := r.opts.RouteFn(d, params)
	if err != nil {
		return nil, err
	}

	e := &entry{
		key:  key,
		sig:  sig,
		w:    d.W,
		h:    d.H,
		bits: bits,
		res:  res,
		seed: capture,
		size: entrySize(bits, res, capture),
	}
	r.mu.Lock()
	if parent != nil {
		r.stats.NearHits++
		r.stats.SeededEdges += res.Negotiate.SeededEdges
		r.stats.SeededHits += res.Negotiate.SeededHits
	} else {
		r.stats.Misses++
	}
	r.insertLocked(e)
	r.mu.Unlock()

	if r.opts.Dir != "" {
		if err := r.storeDisk(e); err != nil {
			r.diskError()
		}
	}
	return res, nil
}

// bestParent returns the cached design most similar to the request (same
// grid and parameters, highest Jaccard overlap at or above the threshold).
// The scan walks the LRU list, not the map, so ties resolve
// deterministically toward the most recently used parent.
func (r *Router) bestParent(bits []uint64, w, h int, sig string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *entry
	bestScore := 0.0
	for e := r.head; e != nil; e = e.next {
		if e.w != w || e.h != h || e.sig != sig || e.seed == nil || len(e.seed.Rounds) == 0 {
			continue
		}
		if score := jaccard(bits, e.bits); score > bestScore && score >= jaccardMin {
			best, bestScore = e, score
		}
	}
	if best == nil {
		return nil
	}
	r.touch(best)
	return best
}

// insertLocked adds e as most-recent and evicts from the cold end until the
// bounds hold. Replacing an existing key (concurrent identical misses) keeps
// the newer entry.
func (r *Router) insertLocked(e *entry) {
	if old, ok := r.entries[e.key]; ok {
		r.unlink(old)
	}
	r.entries[e.key] = e
	r.linkFront(e)
	for r.tail != nil && r.count > 1 &&
		((r.opts.MaxEntries > 0 && r.count > r.opts.MaxEntries) ||
			(r.opts.MaxBytes > 0 && r.bytes > r.opts.MaxBytes)) {
		victim := r.tail
		r.unlink(victim)
		delete(r.entries, victim.key)
		r.stats.Evictions++
	}
}

func (r *Router) linkFront(e *entry) {
	e.prev, e.next = nil, r.head
	if r.head != nil {
		r.head.prev = e
	}
	r.head = e
	if r.tail == nil {
		r.tail = e
	}
	r.count++
	r.bytes += e.size
}

func (r *Router) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		r.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		r.tail = e.prev
	}
	e.prev, e.next = nil, nil
	r.count--
	r.bytes -= e.size
}

// touch moves e to the front of the LRU list.
func (r *Router) touch(e *entry) {
	if r.head == e {
		return
	}
	r.unlink(e)
	r.linkFront(e)
}

// entrySize estimates an entry's resident bytes: the seed dominates, the
// result's paths come second.
func entrySize(bits []uint64, res *pacor.Result, seed *route.NegotiationSeed) int64 {
	n := int64(256) + int64(len(bits))*8 + seed.SizeBytes()
	for i := range res.Clusters {
		c := &res.Clusters[i]
		n += 160 + int64(len(c.Valves)+len(c.FullLens))*8 + int64(len(c.Escape))*16
		for _, p := range c.Paths {
			n += 24 + int64(len(p))*16
		}
	}
	return n
}
