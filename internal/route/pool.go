package route

import (
	"sync"

	"repro/internal/grid"
)

// wsPools holds one sync.Pool of Workspaces per grid cell count, so an
// acquired workspace comes back with its per-cell arrays already sized for
// the grid — no grow() on first use. The package-level AStar / BoundedAStar
// / Negotiate wrappers and the parallel scheduler's workers draw from here;
// hot flow code holds an explicitly owned workspace instead.
var wsPools sync.Map // cells (int) -> *sync.Pool of *Workspace

// poolFor returns the pool serving n-cell grids, creating it on first use.
//
//pacor:allow hotalloc pool and workspace construction happen once per distinct grid size, not per search
func poolFor(n int) *sync.Pool {
	if p, ok := wsPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := wsPools.LoadOrStore(n, &sync.Pool{New: func() interface{} {
		w := &Workspace{} //pacor:allow hotalloc pool miss constructs the reusable workspace exactly once
		w.grow(n)
		return w
	}})
	return p.(*sync.Pool)
}

// AcquireWorkspace returns a pooled workspace sized for g. Pair with
// ReleaseWorkspace. The returned workspace is exclusively owned until
// released; it must not be shared between goroutines.
func AcquireWorkspace(g grid.Grid) *Workspace {
	w := poolFor(g.Cells()).Get().(*Workspace)
	w.pooled = false
	return w
}

// ReleaseWorkspace returns w to the pool serving its current size. Releasing
// nil is a no-op, as is releasing a workspace that is already back in the
// pool — a double Put of one pointer would hand the same workspace to two
// goroutines. The caller must not use w after the first release.
func ReleaseWorkspace(w *Workspace) {
	if w == nil || w.cells == 0 || w.pooled {
		return
	}
	w.pooled = true
	poolFor(w.cells).Put(w)
}
