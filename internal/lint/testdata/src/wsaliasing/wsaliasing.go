// Package wsaliasing is a fixture for the wsaliasing analyzer. The local
// Grid/Workspace stand-ins keep it self-contained: the analyzer matches
// AcquireWorkspace/ReleaseWorkspace by name.
package wsaliasing

//pacor:pkgpath fixture/internal/search

// Grid stands in for grid.Grid.
type Grid struct{ W, H int }

// Cells mirrors the real grid API.
func (g Grid) Cells() int { return g.W * g.H }

// Workspace stands in for route.Workspace.
type Workspace struct{ cells int }

// Search stands in for a workspace-backed search.
func (w *Workspace) Search(from, to int) int { return from + to + w.cells }

// AcquireWorkspace stands in for the pooled acquire.
func AcquireWorkspace(g Grid) *Workspace { return &Workspace{cells: g.Cells()} }

// ReleaseWorkspace stands in for the pooled release.
func ReleaseWorkspace(*Workspace) {}

// balanced is the blessed acquire/use/release pattern.
func balanced(g Grid) int {
	ws := AcquireWorkspace(g)
	n := ws.Search(0, 1)
	ReleaseWorkspace(ws)
	return n
}

// deferred releases via defer: covered on every path, early returns
// included.
func deferred(g Grid, fail bool) int {
	ws := AcquireWorkspace(g)
	defer ReleaseWorkspace(ws)
	if fail {
		return -1
	}
	return ws.Search(1, 2)
}

// leakOnError releases only on the happy path: the error return leaks the
// workspace back to the garbage collector instead of the pool.
func leakOnError(g Grid, fail bool) int {
	ws := AcquireWorkspace(g) // want `workspace ws does not reach ReleaseWorkspace on every path`
	if fail {
		return -1
	}
	n := ws.Search(2, 3)
	ReleaseWorkspace(ws)
	return n
}

// neverReleased has no release at all; -fix inserts a deferred one here.
func neverReleased(g Grid) int {
	ws := AcquireWorkspace(g) // want `workspace ws does not reach ReleaseWorkspace on every path`
	return ws.Search(3, 4)
}

// useAfterRelease touches the workspace once the pool owns it again.
func useAfterRelease(g Grid) int {
	ws := AcquireWorkspace(g)
	ReleaseWorkspace(ws)
	return ws.Search(4, 5) // want `workspace ws is used after ReleaseWorkspace`
}

// doubleRelease puts the workspace back twice.
func doubleRelease(g Grid) {
	ws := AcquireWorkspace(g)
	ReleaseWorkspace(ws)
	ReleaseWorkspace(ws) // want `workspace ws may already be released here`
}

// branchReleaseUse releases on both branches, then uses after the join:
// the use-after-release is visible only through the dataflow join.
func branchReleaseUse(g Grid, cond bool) int {
	ws := AcquireWorkspace(g)
	if cond {
		ReleaseWorkspace(ws)
	} else {
		ReleaseWorkspace(ws)
	}
	return ws.Search(5, 6) // want `workspace ws is used after ReleaseWorkspace`
}

// returned escapes to the caller: the obligations go with it.
func returned(g Grid) *Workspace {
	ws := AcquireWorkspace(g)
	return ws
}

func consume(ws *Workspace) int {
	n := ws.Search(6, 7)
	ReleaseWorkspace(ws)
	return n
}

// passedOn hands the workspace to a callee that takes ownership.
func passedOn(g Grid) int {
	ws := AcquireWorkspace(g)
	return consume(ws)
}

// oneSpawn transfers ownership to a single goroutine, which releases it.
func oneSpawn(g Grid, ch chan int) {
	ws := AcquireWorkspace(g)
	go func() {
		ch <- ws.Search(3, 3)
		ReleaseWorkspace(ws)
	}()
}

// loopAcquire pairs acquire and release inside one loop body; the back
// edge must not confuse the state.
func loopAcquire(g Grid, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		ws := AcquireWorkspace(g)
		total += ws.Search(i, i)
		ReleaseWorkspace(ws)
	}
	return total
}

// methodCalls use the workspace through selectors: receivers are uses,
// not escapes, so release obligations stay local and satisfied.
func methodCalls(g Grid, cond bool) int {
	ws := AcquireWorkspace(g)
	n := ws.Search(0, 0)
	if cond {
		n += ws.Search(1, 0)
	}
	ReleaseWorkspace(ws)
	return n
}

// suppressed opts out with a justification.
func suppressed(g Grid) int {
	ws := AcquireWorkspace(g) //pacor:allow wsaliasing fixture documents the justified opt-out; caller releases via registry
	return ws.Search(9, 9)
}

// Replay stands in for a cached-result replay read off the workspace's
// negotiation-cache state.
func (w *Workspace) Replay(i int) int { return w.cells + i }

// replayAfterRelease replays a cached cone after the pool owns the
// workspace again: the next acquirer resets and rewrites the cache
// entries, so the replayed path is garbage.
func replayAfterRelease(g Grid) int {
	ws := AcquireWorkspace(g)
	ReleaseWorkspace(ws)
	return ws.Replay(1) // want `workspace ws is used after ReleaseWorkspace`
}

// cacheAcrossCalls holds the workspace — and with it the cache state —
// for the whole negotiation, releasing on every path: the blessed shape
// for cache-carrying calls.
func cacheAcrossCalls(g Grid, rounds int) int {
	ws := AcquireWorkspace(g)
	defer ReleaseWorkspace(ws)
	total := 0
	for r := 0; r < rounds; r++ {
		total += ws.Replay(r)
	}
	return total
}
