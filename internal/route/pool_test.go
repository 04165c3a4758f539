package route

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// TestReleaseWorkspaceDouble is the dynamic counterpart of the wsaliasing
// analyzer's double-release check: releasing the same workspace twice must
// not put it into the pool twice, or two subsequent acquires would hand
// the same pointer to two owners.
func TestReleaseWorkspaceDouble(t *testing.T) {
	g := grid.New(17, 13) // odd size to get a dedicated pool
	ws := AcquireWorkspace(g)
	ReleaseWorkspace(ws)
	ReleaseWorkspace(ws) // must be a no-op

	a := AcquireWorkspace(g)
	b := AcquireWorkspace(g)
	if a == b {
		t.Fatalf("double release put one workspace into the pool twice: both acquires returned %p", a)
	}
	ReleaseWorkspace(a)
	ReleaseWorkspace(b)
}

// TestReleaseWorkspaceNil pins the documented no-op cases.
func TestReleaseWorkspaceNil(t *testing.T) {
	ReleaseWorkspace(nil)
	ReleaseWorkspace(&Workspace{}) // zero cells: never pooled
}

// TestAcquireWorkspaceReacquire checks that a released workspace can be
// acquired and used again: the acquire clears the pooled flag.
func TestAcquireWorkspaceReacquire(t *testing.T) {
	g, obs := scatterObs(24, 24, 60, 21)
	req := Request{Sources: []geom.Pt{{X: 0, Y: 0}}, Targets: []geom.Pt{{X: 23, Y: 23}}, Obs: obs}
	want, okWant := AStar(g, req)

	ws := AcquireWorkspace(g)
	ReleaseWorkspace(ws)
	ws = AcquireWorkspace(g)
	got, ok := ws.AStar(g, req)
	if ok != okWant || (ok && got.Len() != want.Len()) {
		t.Fatalf("reacquired workspace: ok=%v len=%d, want ok=%v len=%d", ok, got.Len(), okWant, want.Len())
	}
	ReleaseWorkspace(ws)
}

// TestWorkspaceCrossGridReuse routes on two different grid sizes through
// the pooled wrappers: each size must draw from its own pool, and results
// must match fresh workspaces on both.
func TestWorkspaceCrossGridReuse(t *testing.T) {
	gSmall, obsSmall := scatterObs(16, 16, 40, 5)
	gLarge, obsLarge := scatterObs(40, 40, 300, 6)

	reqSmall := Request{Sources: []geom.Pt{{X: 0, Y: 0}}, Targets: []geom.Pt{{X: 15, Y: 15}}, Obs: obsSmall}
	reqLarge := Request{Sources: []geom.Pt{{X: 0, Y: 0}}, Targets: []geom.Pt{{X: 39, Y: 39}}, Obs: obsLarge}

	wantSmall, okSmall := NewWorkspace(gSmall).AStar(gSmall, reqSmall)
	wantLarge, okLarge := NewWorkspace(gLarge).AStar(gLarge, reqLarge)

	for i := 0; i < 4; i++ {
		ws := AcquireWorkspace(gSmall)
		if ws.cells != gSmall.Cells() {
			t.Fatalf("iteration %d: small-grid acquire returned %d-cell workspace, want %d", i, ws.cells, gSmall.Cells())
		}
		p, ok := ws.AStar(gSmall, reqSmall)
		if ok != okSmall || (ok && p.Len() != wantSmall.Len()) {
			t.Fatalf("iteration %d: small grid ok=%v len=%d, want ok=%v len=%d", i, ok, p.Len(), okSmall, wantSmall.Len())
		}
		ReleaseWorkspace(ws)

		wl := AcquireWorkspace(gLarge)
		if wl.cells != gLarge.Cells() {
			t.Fatalf("iteration %d: large-grid acquire returned %d-cell workspace, want %d", i, wl.cells, gLarge.Cells())
		}
		p, ok = wl.AStar(gLarge, reqLarge)
		if ok != okLarge || (ok && p.Len() != wantLarge.Len()) {
			t.Fatalf("iteration %d: large grid ok=%v len=%d, want ok=%v len=%d", i, ok, p.Len(), okLarge, wantLarge.Len())
		}
		ReleaseWorkspace(wl)
	}
}

// TestWorkspacePoolRoundTrip: a workspace released for one grid serves a
// grid of the same cell count but different shape correctly.
func TestWorkspacePoolRoundTrip(t *testing.T) {
	g1 := grid.New(16, 16)
	g2 := grid.New(32, 8)
	w1 := AcquireWorkspace(g1)
	ReleaseWorkspace(w1)
	w2 := AcquireWorkspace(g2)
	// Same cell count (256): the pool may hand back the same workspace; it
	// must be safely reusable either way.
	p, ok := w2.AStar(g2, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}},
		Targets: []geom.Pt{{X: 31, Y: 7}},
		Obs:     grid.NewObsMap(g2),
	})
	if !ok || p.Len() != 38 {
		t.Fatalf("pooled workspace search: ok=%v len=%d, want the Manhattan distance 38", ok, p.Len())
	}
	ReleaseWorkspace(w2)
	ReleaseWorkspace(nil) // must be a no-op
}
