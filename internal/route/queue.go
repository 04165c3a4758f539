package route

import "math"

// This file implements the Dial-style bucket queue the grid searches use in
// place of the binary heap, and the fixed-point quantization certificate that
// gates it. Each search picks its open list once, before its first push
// (astarRing / boundedRing in workspace.go certify and size the ring), and
// its one loop pushes and pops through Workspace.push / pop.
//
// Both grid searches order their frontiers by an f key plus a deterministic
// tie-break (openLess: smaller f first, earlier push first).
// When every key the search can produce is an exact integer — unit step
// costs, or Eq.-5 history costs certified by HistQuant — the binary heap can
// be replaced by a ring of B = 2^k buckets indexed key mod B: push is O(1),
// pop advances a monotone cursor and takes the head of the first nonempty
// bucket. Within one bucket, items chain in push order and pop FIFO — the
// heaps' tie-break — so the pop sequence of the two implementations is
// identical item for item. Identical pop sequences mean
// identical expansions, stamps, and parent writes, so routed output is
// byte-identical between the two open lists (TestQueueModesByteIdentical
// sweeps this).
//
// The ring window: a bucket queue is valid while all live keys fit in
// [cur, cur+B). For A* with a consistent heuristic, a key pushed after popping
// f is in [f, f+maxStep+scale] (the heuristic moves by at most one cell, i.e.
// `scale` in fixed-point units), and before the first pop the live keys span
// the initial heuristic spread of the sources. The bounded search's
// under-length penalty (prio = 2*minLen − f) *decreases* as paths stretch, so
// its pushes can land below the cursor; push rolls the cursor back, and the
// ring is sized for the whole key universe [minLen, max(2*minLen, maxLen+H)]
// instead of a sliding window. When the required ring exceeds maxBucketSpan,
// the search runs on the heap — same output, different constant factor.

const (
	// maxBucketSpan caps the ring size; searches whose key span would exceed
	// it run on the heap instead. 2^17 int32 heads is 512 KiB, allocated once
	// per workspace and reused.
	maxBucketSpan = 1 << 17
	// maxQuantScale caps the fixed-point scale HistQuant will certify. Scales
	// are powers of two, so scaling float64 costs is always exact; the cap
	// bounds the scaled key span (ring size) instead of precision.
	maxQuantScale = 1 << 12
)

// HistQuant computes the bucket-queue quantization certificate for the
// negotiation history domain: after `bumps` applications of Eq. 5
// (h' = base + alpha·h, starting from 0), every cell's history is one of the
// iterates h_0..h_bumps, so every step cost is 1+h_k. HistQuant returns the
// smallest power-of-two scale such that (1+h_k)·scale is an exact integer in
// float64 for every k ≤ bumps, plus the largest scaled step. ok=false when no
// scale ≤ maxQuantScale works — e.g. the paper's alpha = 0.1 once bumps ≥ 2
// (1.1 is not a dyadic rational) — in which case the search keeps the float64
// heap. Powers of two keep the certificate honest: multiplying a float64 by
// 2^k never rounds, so "scaled value is integral" is checkable exactly.
func HistQuant(base, alpha float64, bumps int) (scale, maxStep int64, ok bool) {
	scale = 1
	h := 0.0
	for k := 0; k <= bumps; k++ {
		step := 1.0 + h
		if h < 0 || step <= 0 || step > float64(maxBucketSpan) {
			return 0, 0, false
		}
		for {
			s := step * float64(scale)
			if s == math.Trunc(s) {
				break
			}
			if scale >= maxQuantScale {
				return 0, 0, false
			}
			scale <<= 1
		}
		h = base + alpha*h
	}
	// Second pass at the final scale: earlier iterates stay integral when the
	// scale doubles, so only the max needs recomputing.
	h = 0.0
	for k := 0; k <= bumps; k++ {
		if s := int64((1.0 + h) * float64(scale)); s > maxStep {
			maxStep = s
		}
		h = base + alpha*h
	}
	return scale, maxStep, true
}

// quant returns the request's certified fixed-point key domain: the scale and
// the largest scaled step cost. ok=false means the cost domain carries no
// integrality certificate (caller-supplied Hist without HistScale) and the
// search must use the heap.
func (r *Request) quant() (scale, maxStep int64, ok bool) {
	if r.Hist == nil {
		return 1, 1, true
	}
	if r.HistScale > 0 {
		return r.HistScale, r.HistMax, true
	}
	return 0, 0, false
}

// bqNode is one queued item: the payload value and the index of the next node
// in the same bucket (-1 ends the chain).
type bqNode struct {
	val  int32
	next int32
}

// bucketQueue is the reusable Dial ring. prep sizes it for one search; nodes
// are allocated append-only and recycled wholesale by the next prep. Each
// bucket is a singly linked chain pushed at the tail and popped at the head,
// so equal-key items pop in push order — the searches' FIFO tie-break.
type bucketQueue struct {
	head  []int32 // per-bucket chain head into nodes, -1 when empty
	tail  []int32 // per-bucket chain tail
	nodes []bqNode
	mask  int64
	cur   int64
	count int
}

// prep empties the queue and sizes the ring so keys spanning at most `span`
// (max key − min key) fit the window invariant. It reports false when the
// required ring would exceed maxBucketSpan; the caller then uses the heap.
//
//pacor:allow hotalloc ring and node arrays are workspace-resident, (re)allocated only when the span high-water mark grows
func (q *bucketQueue) prep(span int64) bool {
	if span < 0 || span >= maxBucketSpan {
		return false
	}
	b := int64(1)
	for b <= span {
		b <<= 1
	}
	if int64(len(q.head)) < b {
		q.head = make([]int32, b)
		q.tail = make([]int32, b)
	}
	h := q.head[:b]
	for i := range h {
		h[i] = -1
	}
	q.mask = b - 1
	q.cur = 0
	q.count = 0
	q.nodes = q.nodes[:0]
	return true
}

// push inserts val with the given key. A key below the cursor rolls the
// cursor back (the bounded search's under-length penalty shrinks keys).
//
//pacor:allow hotalloc amortized node-pool growth, capacity reused across searches
func (q *bucketQueue) push(key int64, val int32) {
	if q.count == 0 || key < q.cur {
		q.cur = key
	}
	b := key & q.mask
	n := int32(len(q.nodes))
	q.nodes = append(q.nodes, bqNode{val: val, next: -1})
	if q.head[b] < 0 {
		q.head[b] = n
	} else {
		q.nodes[q.tail[b]].next = n
	}
	q.tail[b] = n
	q.count++
}

// pop removes and returns the value with the smallest key (earliest push
// among equals). ok=false when the queue is empty. The cursor only moves
// forward past empty buckets; the window invariant guarantees the scan
// terminates within one ring revolution.
func (q *bucketQueue) pop() (val int32, ok bool) {
	if q.count == 0 {
		return -1, false
	}
	for {
		b := q.cur & q.mask
		n := q.head[b]
		if n >= 0 {
			q.head[b] = q.nodes[n].next
			q.count--
			return q.nodes[n].val, true
		}
		q.cur++
	}
}
