package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/designcache"
	"repro/internal/dme"
	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/pacor"
	"repro/internal/route"
	"repro/internal/seltree"
	"repro/internal/valve"
)

// stageNames are the Result.StageTimes keys in the default (PACOR) flow order.
var stageNames = [...]string{"clustering", "lmrouting", "mstrouting", "escape", "detour"}

// layerStats sums what the traced passes saw. Times are summed over traced
// requests; counts are summed over traced passes. An exact cache hit runs no
// layer, so it adds a request and nothing else.
type layerStats struct {
	routes, passes int

	stages       [len(stageNames)]time.Duration
	unattributed time.Duration
	partition    time.Duration
	candidates   time.Duration
	selection    time.Duration
	negotiate    time.Duration
	escape       time.Duration

	cands, localFallback      int
	neg                       route.NegotiateStats
	candReplayed, selReplayed int
	cache                     designcache.Stats
}

func (l *layerStats) addCache(s designcache.Stats) {
	l.cache.Hits += s.Hits
	l.cache.NearHits += s.NearHits
	l.cache.Misses += s.Misses
	l.cache.Evictions += s.Evictions
	l.cache.SeededHits += s.SeededHits
}

// trace records one traced request: its root span, its stage spans and
// replays of its layers unless it was an exact cache hit, and, when
// coldCheck is set, a cold pacor.Route the result must match. It returns
// why the request failed, if it did.
func (o *outcome) trace(d *valve.Design, res *pacor.Result, t0 time.Time, dur time.Duration, hit, coldCheck bool, params pacor.Params) error {
	id := o.attempted
	o.spans.add("route", "request", id, t0, dur, false)
	o.layers.routes++
	if res == nil {
		return nil
	}
	if !hit {
		at := t0
		var sum time.Duration
		for i, name := range stageNames {
			st := res.StageTimes[name]
			o.spans.add("pacor."+name, "stage", id, at, st, true)
			o.layers.stages[i] += st
			at = at.Add(st)
			sum += st
		}
		o.layers.unattributed += res.Runtime - sum
		o.layers.neg.Add(res.Negotiate)
		o.layers.candReplayed += res.LMReuse.CandReplayed
		if res.LMReuse.SelectionReplayed {
			o.layers.selReplayed++
		}
		if err := o.replay(id, d, res, params); err != nil {
			return err
		}
	}
	if coldCheck {
		t := time.Now()
		cold, err := pacor.Route(d, params)
		o.spans.since("pacor.Route cold check", id, t)
		if err != nil {
			return fmt.Errorf("%s: cold check: %w", d.Name, err)
		}
		if err := sameRouting(res, cold); err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
	}
	return nil
}

// replay times the layers' public entry points on the maps the flow gives
// them: clustering on the design, DME candidates and selection on the
// obstacle-plus-valve map, and escape on that map plus the final internal
// channels with each cluster's take-off fixed to its escape's first cell.
func (o *outcome) replay(id int, d *valve.Design, res *pacor.Result, params pacor.Params) error {
	l, tr := &o.layers, &o.spans
	t := time.Now()
	part := cluster.Partition(d)
	l.partition += tr.since("cluster.partition", id, t)

	obs := staticObs(d)
	var cands [][]*dme.Tree
	var dmeTime time.Duration
	for _, c := range part.Clusters {
		if !c.LM || len(c.Valves) < 3 {
			continue
		}
		sinks := make([]geom.Pt, len(c.Valves))
		for i, v := range c.Valves {
			sinks[i] = d.Valves[v].Pos
		}
		t := time.Now()
		cs := dme.Candidates(obs, sinks, params.MaxCandidates)
		dmeTime += tr.since("dme.candidates", id, t)
		l.cands += len(cs)
		if len(cs) > 0 {
			cands = append(cands, cs)
		}
	}
	l.candidates += dmeTime

	var selTime time.Duration
	if len(cands) > 0 {
		cfg := seltree.DefaultConfig()
		cfg.Lambda = params.Lambda
		cfg.Solver = params.Solver
		total := 0
		for _, cs := range cands {
			total += len(cs)
		}
		if total > cfg.LocalFallbackSize {
			l.localFallback++
		}
		t := time.Now()
		_, err := seltree.Select(cands, cfg)
		selTime = tr.since("seltree.select", id, t)
		if err != nil {
			return fmt.Errorf("%s: selection replay: %w", d.Name, err)
		}
	}
	l.selection += selTime

	// Negotiation is what the LM stage spent outside candidates and
	// selection. On a seeded route, replayed candidate sets and a replayed
	// selection did not run, so only the share that ran is subtracted.
	ran := 1.0
	if lr := res.LMReuse; lr.CandClusters > 0 {
		ran = 1 - float64(lr.CandReplayed)/float64(lr.CandClusters)
	}
	neg := res.StageTimes["lmrouting"] - time.Duration(ran*float64(dmeTime))
	if !res.LMReuse.SelectionReplayed {
		neg -= selTime
	}
	l.negotiate += neg

	var terms []escape.Terminal
	for _, c := range res.Clusters {
		for _, p := range c.Paths {
			obs.SetPath(p, true)
		}
		if len(c.Escape) > 0 {
			terms = append(terms, escape.Terminal{ClusterID: c.ID, Cells: []geom.Pt{c.Escape[0]}})
		}
	}
	t = time.Now()
	escape.Route(obs, terms, d.Pins)
	l.escape += tr.since("escape.route", id, t)
	return nil
}

// staticObs is the flow's starting map: obstacles and valves blocked.
func staticObs(d *valve.Design) *grid.ObsMap {
	obs := grid.NewObsMap(grid.New(d.W, d.H))
	for _, p := range d.Obstacles {
		obs.Set(p, true)
	}
	for _, v := range d.Valves {
		obs.Set(v.Pos, true)
	}
	return obs
}

// sameRouting reports where got differs from a cold route of the same design.
func sameRouting(got, cold *pacor.Result) error {
	if got.MatchedClusters != cold.MatchedClusters || got.TotalLen != cold.TotalLen || len(got.Clusters) != len(cold.Clusters) {
		return fmt.Errorf("matched %d, length %d, %d clusters; a cold route gives %d, %d, %d",
			got.MatchedClusters, got.TotalLen, len(got.Clusters), cold.MatchedClusters, cold.TotalLen, len(cold.Clusters))
	}
	for i := range got.Clusters {
		g, c := &got.Clusters[i], &cold.Clusters[i]
		if g.Pin != c.Pin || !slices.Equal(g.Escape, c.Escape) ||
			!slices.EqualFunc(g.Paths, c.Paths, func(a, b grid.Path) bool { return slices.Equal(a, b) }) {
			return fmt.Errorf("cluster %d differs from a cold route", g.ID)
		}
	}
	return nil
}
