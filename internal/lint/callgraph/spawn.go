package callgraph

import (
	"go/ast"
	"go/token"
	"strings"
)

// Role classifies the goroutine contexts a function may run on. The bits
// are may-facts: a function reachable both from the package's synchronous
// entry points and from a spawned closure carries RoleMain and a spawn
// role at once. A zero Role means the spawn graph could not place the
// function on any goroutine (e.g. a closure stored in a struct field and
// invoked through an unknown edge) — analyses must treat it as unknown,
// not as main.
type Role uint8

const (
	// RoleMain marks functions reachable from the package's synchronous
	// entry surface: exported functions, main/init, and functions whose
	// address is taken (they can be called from anywhere).
	RoleMain Role = 1 << iota
	// RoleWorker marks functions spawned repeatedly — a `go` statement
	// inside a loop, or two or more distinct spawn sites. Multiple
	// instances of a worker run concurrently with each other.
	RoleWorker
	// RoleFanout marks functions spawned exactly once, outside any loop:
	// a single helper goroutine running concurrently with its spawner but
	// not with siblings of itself.
	RoleFanout
)

// Spawned reports whether the role includes any asynchronous context.
func (r Role) Spawned() bool { return r&(RoleWorker|RoleFanout) != 0 }

// String renders the role bits for diagnostics.
func (r Role) String() string {
	if r == 0 {
		return "unknown"
	}
	var parts []string
	if r&RoleMain != 0 {
		parts = append(parts, "main")
	}
	if r&RoleWorker != 0 {
		parts = append(parts, "worker")
	}
	if r&RoleFanout != 0 {
		parts = append(parts, "fanout")
	}
	return strings.Join(parts, "|")
}

// span is a half-open source range.
type span struct{ lo, hi token.Pos }

func (s span) contains(p token.Pos) bool { return s.lo <= p && p < s.hi }

// loopSpans collects the source ranges of the loop statements directly in
// body (not descending into nested function literals — their loops belong
// to their own nodes).
func loopSpans(body *ast.BlockStmt) []span {
	var out []span
	shallowInspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			out = append(out, span{n.Pos(), n.End()})
		case *ast.RangeStmt:
			out = append(out, span{n.Pos(), n.End()})
		}
		return true
	})
	return out
}

func inSpans(p token.Pos, spans []span) bool {
	for _, s := range spans {
		if s.contains(p) {
			return true
		}
	}
	return false
}

// SpawnRoles infers the goroutine role of every node in the graph.
//
// Seeding: a node spawned by a `go` statement inside a loop, or from two
// or more sites, is a worker; a node spawned exactly once outside any loop
// is a fan-out helper. Declared functions that are exported, named main or
// init, referenced as values (address taken), or never called from within
// the package are main seeds — they form the package's synchronous entry
// surface.
//
// Propagation: role bits flow along synchronous (call and defer) edges to
// intra-package callees until a fixed point — a helper called only from a
// worker is itself worker-role. `go` edges do not propagate the caller's
// role: the spawned body's role comes from the spawn site itself.
//
// The result maps node keys to roles; keys absent from the map (closures
// that are never spawned and have no incoming edges, e.g. task values
// stored in a struct and invoked elsewhere) have unknown role.
func (g *Graph) SpawnRoles() map[string]Role {
	roles := map[string]Role{}
	plainSpawns := map[string]int{}
	loopSpawn := map[string]bool{}
	incoming := map[string]int{}

	for _, n := range g.Nodes {
		spans := loopSpans(n.Body())
		for _, e := range n.Edges {
			if e.Callee == "" || g.ByKey[e.Callee] == nil {
				continue
			}
			switch e.Kind {
			case KindGo:
				if e.Site != nil && inSpans(e.Site.Pos(), spans) {
					loopSpawn[e.Callee] = true
				} else {
					plainSpawns[e.Callee]++
				}
			case KindCall, KindDefer:
				incoming[e.Callee]++
			}
		}
	}

	for _, n := range g.Nodes {
		switch {
		case loopSpawn[n.Key] || plainSpawns[n.Key] >= 2:
			roles[n.Key] |= RoleWorker
		case plainSpawns[n.Key] == 1:
			roles[n.Key] |= RoleFanout
		}
	}

	for _, n := range g.Nodes {
		if n.Decl == nil {
			continue
		}
		name := n.Decl.Name.Name
		switch {
		case n.Decl.Name.IsExported(), name == "main", name == "init",
			g.ValueRef[n.Key],
			incoming[n.Key] == 0 && !roles[n.Key].Spawned():
			roles[n.Key] |= RoleMain
		}
	}

	// Fixed point: iterate until no bit changes. Node order is
	// deterministic, and bits only ever grow, so the result is independent
	// of iteration order.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			r := roles[n.Key]
			if r == 0 {
				continue
			}
			for _, e := range n.Edges {
				if e.Kind != KindCall && e.Kind != KindDefer {
					continue
				}
				if g.ByKey[e.Callee] == nil {
					continue
				}
				if roles[e.Callee]|r != roles[e.Callee] {
					roles[e.Callee] |= r
					changed = true
				}
			}
		}
	}
	return roles
}
