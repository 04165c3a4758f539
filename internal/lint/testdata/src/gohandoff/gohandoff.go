// Package gohandoff is a fixture for the summaries' rule on `go`
// statements: a spawned call's arguments and a spawned closure's captured
// variables escape to the new goroutine. The spawner's release obligation
// goes with them, so no leak is reported; and the spawned callee's release
// is never credited at the spawn site, because it runs later, on another
// goroutine. The synchronous cases are the controls.
package gohandoff

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

// consume releases on every path: a synchronous call discharges the
// caller's obligation.
func consume(ws *Workspace) int {
	n := ws.Search(0, 1)
	ReleaseWorkspace(ws)
	return n
}

// observe only reads the workspace; the caller keeps the obligation.
func observe(ws *Workspace) int { return ws.Search(1, 2) }

// syncConsume is the control for crediting: the synchronous call releases,
// so releasing again is a double release.
func syncConsume(g Grid) {
	ws := AcquireWorkspace(g)
	consume(ws)
	ReleaseWorkspace(ws) // want `workspace ws may already be released here`
}

// syncObserve is the control for escaping: a read-only helper leaves the
// obligation here, and nothing releases it.
func syncObserve(g Grid) int {
	ws := AcquireWorkspace(g) // want `workspace ws does not reach ReleaseWorkspace on every path`
	return observe(ws)
}

// spawnConsume hands the workspace to a goroutine: not a leak.
func spawnConsume(g Grid) {
	ws := AcquireWorkspace(g)
	go consume(ws)
}

// spawnObserve hands the workspace to a goroutine that never releases it:
// the obligation leaves with the argument, so it is not reported here.
func spawnObserve(g Grid) {
	ws := AcquireWorkspace(g)
	go observe(ws)
}

// spawnThenRelease: consume's release is not credited at the spawn, so the
// release after it is not a double release.
func spawnThenRelease(g Grid) {
	ws := AcquireWorkspace(g)
	go consume(ws)
	ReleaseWorkspace(ws)
}

// spawnClosure hands the workspace to a spawned closure by capture.
func spawnClosure(g Grid, ch chan int) {
	ws := AcquireWorkspace(g)
	go func() { ch <- ws.Search(3, 3) }()
}

// spawnCall's summary: the parameter escapes and is never released here.
func spawnCall(ws *Workspace) { go consume(ws) }

// spawnCapture's summary: the same, through a spawned closure's capture.
func spawnCapture(ws *Workspace) {
	go func() { consume(ws) }()
}

// viaSpawnCall applies spawnCall's summary: an ownership transfer, so no
// leak, and the later release is not a double release.
func viaSpawnCall(g Grid) {
	ws := AcquireWorkspace(g)
	spawnCall(ws)
	ReleaseWorkspace(ws)
}

// viaSpawnCapture is the same through the capturing helper.
func viaSpawnCapture(g Grid) {
	ws := AcquireWorkspace(g)
	spawnCapture(ws)
}
