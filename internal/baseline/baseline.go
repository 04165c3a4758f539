// Package baseline implements a prior-art-style control-layer router in the
// spirit of the direct approaches PACOR compares its motivation against
// (Amin et al., ICCD'09 — the first control-layer router — and the general
// practice before length-matching was considered): clusters are connected
// with plain MST topology and each cluster escapes greedily to its nearest
// free control pin with sequential A*, in cluster order, with no candidate
// trees, no negotiation, no min-cost-flow, and no detouring. It exists as
// the external comparison point for the evaluation: PACOR should dominate
// it on length matching and routability, at some runtime cost.
package baseline

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mstroute"
	"repro/internal/pacor"
	"repro/internal/route"
	"repro/internal/valve"
)

// Route runs the baseline router and reports its result in the same shape
// as the PACOR flow so the two are directly comparable.
func Route(d *valve.Design) (*pacor.Result, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	g := grid.New(d.W, d.H)
	obs := grid.NewObsMap(g)
	for _, o := range d.Obstacles {
		obs.Set(o, true)
	}
	for _, v := range d.Valves {
		obs.Set(v.Pos, true)
	}
	ws := route.NewWorkspace(g)

	part := cluster.Partition(d)
	res := &pacor.Result{TotalValves: len(d.Valves)}

	// Larger clusters first, as in the flow's MST stage.
	order := make([]int, len(part.Clusters))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(part.Clusters[order[a]].Valves) > len(part.Clusters[order[b]].Valves)
	})

	usedPins := map[geom.Pt]bool{}
	for _, ci := range order {
		c := part.Clusters[ci]
		cr := pacor.ClusterResult{ID: c.ID, Valves: c.Valves, LM: c.LM}
		pts := make([]geom.Pt, len(c.Valves))
		for i, v := range c.Valves {
			pts[i] = d.Valves[v].Pos
		}
		// Internal channels: plain MST (no negotiation, no retry).
		internalOK := true
		if len(pts) > 1 {
			mres, ok := mstroute.RouteCluster(ws, obs, pts)
			cr.Paths = mres.Paths
			internalOK = ok
		}
		// Escape: greedy A* from any channel cell to the nearest free pin.
		if internalOK {
			sources := append([]geom.Pt(nil), pts...)
			for _, p := range cr.Paths {
				sources = append(sources, p...)
			}
			var freePins []geom.Pt
			for _, p := range d.Pins {
				if !usedPins[p] && !obs.Blocked(p) {
					freePins = append(freePins, p)
				}
			}
			if path, ok := ws.AStar(g, route.Request{
				Sources: sources, Targets: freePins, Obs: obs,
			}); ok {
				obs.SetPath(path, true)
				cr.Escape = path
				cr.Pin = path[len(path)-1]
				cr.Routed = true
				usedPins[cr.Pin] = true
			}
		}
		// No length matching: report the spread anyway so comparisons can
		// quantify what the baseline leaves unmatched.
		if cr.Routed && c.LM && len(c.Valves) >= 2 && internalOK {
			cr.FullLens = channelDistances(cr.Paths, pts, cr.Escape[0])
			cr.Matched = matched(cr.FullLens, d.Delta)
		}
		if len(c.Valves) >= 2 {
			res.MultiClusters++
		}
		if cr.Matched && len(c.Valves) >= 2 {
			res.MatchedClusters++
			res.MatchedLen += cr.TotalLen()
		}
		res.TotalLen += cr.TotalLen()
		if cr.Routed {
			res.RoutedValves += len(cr.Valves)
		}
		res.Clusters = append(res.Clusters, cr)
	}
	sort.Slice(res.Clusters, func(i, j int) bool { return res.Clusters[i].ID < res.Clusters[j].ID })
	res.Runtime = time.Since(start)
	return res, nil
}

// channelDistances BFS-walks the cluster's channel cells and returns each
// valve's distance to the take-off cell (-1 when unreachable, which cannot
// happen for a connected MST result).
func channelDistances(paths []grid.Path, valves []geom.Pt, takeoff geom.Pt) []int {
	adj := map[geom.Pt][]geom.Pt{}
	for _, seg := range paths {
		for i := 1; i < len(seg); i++ {
			adj[seg[i-1]] = append(adj[seg[i-1]], seg[i])
			adj[seg[i]] = append(adj[seg[i]], seg[i-1])
		}
	}
	dist := map[geom.Pt]int{takeoff: 0}
	queue := []geom.Pt{takeoff}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, q := range adj[c] {
			if _, seen := dist[q]; !seen {
				dist[q] = dist[c] + 1
				queue = append(queue, q)
			}
		}
	}
	out := make([]int, len(valves))
	for i, v := range valves {
		if dv, ok := dist[v]; ok {
			out[i] = dv
		} else {
			out[i] = -1
		}
	}
	return out
}

func matched(lens []int, delta int) bool {
	if len(lens) == 0 {
		return false
	}
	mn, mx := lens[0], lens[0]
	for _, l := range lens {
		if l < 0 {
			return false
		}
		if l < mn {
			mn = l
		}
		if l > mx {
			mx = l
		}
	}
	return mx-mn <= delta
}
