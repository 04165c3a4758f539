// Command pacor routes the control layer of a flow-based microfluidic
// biochip design with the PACOR flow.
//
// Usage:
//
//	pacor [-mode pacor|wosel|detourfirst] [-hier auto|on|off] [-stats] [-render] [-clusters] design.json
//	pacor -bench S3 [-mode ...] [-render] [-svg out.svg] [-skew] [-json out.json]
//	pacor -bench S5 -cpuprofile cpu.pprof -memprofile mem.pprof
//	pacor -bench S3 -cachedir .pacor-cache [-stable] [-stats]
//
// -cachedir enables the cross-run design cache (internal/designcache): a
// repeated design replays its stored result once it passes the design-rule
// check, a similar design warm-seeds negotiation from the most similar
// cached run. Both route byte-identically to a cold run; -stable omits
// wall-clock fields so two runs can be compared with a plain diff. One
// process routes one design, so the cache's memory store holds at most one
// entry and its size bounds are left at their defaults.
//
// The design is a JSON file (see internal/valve); -bench routes one of the
// built-in Table 1 benchmarks instead. Exit status 1 indicates a routing or
// verification failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/bench"
	"repro/internal/designcache"
	"repro/internal/pacor"
	"repro/internal/pressure"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/route"
	"repro/internal/valve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pacor:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pacor", flag.ContinueOnError)
	fs.SetOutput(stdout)
	modeFlag := fs.String("mode", "pacor", "flow variant: pacor, wosel, detourfirst")
	benchFlag := fs.String("bench", "", "route a built-in benchmark (Chip1, Chip2, S1..S5)")
	renderFlag := fs.Bool("render", false, "print an ASCII map of the routed chip")
	clustersFlag := fs.Bool("clusters", false, "print the per-cluster report")
	svgFlag := fs.String("svg", "", "write an SVG rendering to this file")
	jsonFlag := fs.String("json", "", "write the routing result as JSON to this file")
	skewFlag := fs.Bool("skew", false, "simulate pressure propagation and report per-cluster actuation skew")
	statsFlag := fs.Bool("stats", false, "print negotiation work and cross-run reuse counters")
	hierFlag := fs.String("hier", "auto", "hierarchical two-stage escape routing: auto (on above the Table 1 scale), on, off")
	cacheDir := fs.String("cachedir", "", "cross-run design cache directory: exact hits replay the stored result, near hits warm-seed negotiation (routes identically)")
	stableFlag := fs.Bool("stable", false, "omit wall-clock fields from the summary (for byte-comparing runs)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "pacor: memprofile:", err)
			}
		}()
	}

	var mode pacor.Mode
	switch *modeFlag {
	case "pacor":
		mode = pacor.ModePACOR
	case "wosel":
		mode = pacor.ModeWithoutSelection
	case "detourfirst":
		mode = pacor.ModeDetourFirst
	default:
		return fmt.Errorf("unknown mode %q", *modeFlag)
	}

	var d *valve.Design
	var err error
	switch {
	case *benchFlag != "":
		d, err = bench.Generate(*benchFlag)
	case fs.NArg() == 1:
		var f *os.File
		f, err = os.Open(fs.Arg(0))
		if err == nil {
			d, err = valve.Read(f)
			f.Close()
		}
	default:
		return fmt.Errorf("usage: pacor [-mode m] [-render] [-clusters] design.json | -bench NAME")
	}
	if err != nil {
		return err
	}

	params := pacor.DefaultParams()
	params.Mode = mode
	hier, err := route.ParseHierMode(*hierFlag)
	if err != nil {
		return err
	}
	params.Hier = hier
	var res *pacor.Result
	var cacheStats *designcache.Stats
	if *cacheDir != "" {
		cr := designcache.New(designcache.Options{Dir: *cacheDir})
		res, err = cr.Route(d, params)
		if err == nil {
			s := cr.Snapshot()
			cacheStats = &s
		}
	} else {
		res, err = pacor.Route(d, params)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "design %s (%dx%d, %d valves): mode %s\n", d.Name, d.W, d.H, len(d.Valves), mode)
	fmt.Fprintf(stdout, "  clusters (>=2 valves): %d, matched: %d\n", res.MultiClusters, res.MatchedClusters)
	fmt.Fprintf(stdout, "  matched channel length: %d, total channel length: %d\n", res.MatchedLen, res.TotalLen)
	if *stableFlag {
		fmt.Fprintf(stdout, "  routing completion: %.1f%% (%d/%d valves)\n",
			100*res.CompletionRate(), res.RoutedValves, res.TotalValves)
	} else {
		fmt.Fprintf(stdout, "  routing completion: %.1f%% (%d/%d valves), runtime %v\n",
			100*res.CompletionRate(), res.RoutedValves, res.TotalValves, res.Runtime)
	}
	if *statsFlag {
		ns := res.Negotiate
		fmt.Fprintf(stdout, "  negotiation: %d rounds, %d searches\n", ns.Rounds, ns.Searches)
		if ns.SeededEdges > 0 || ns.SeededHits > 0 {
			fmt.Fprintf(stdout, "  negotiation cross-run: %d seeded edges, %d replays\n", ns.SeededEdges, ns.SeededHits)
		}
		if cacheStats != nil {
			s := cacheStats
			fmt.Fprintf(stdout, "  design cache: %d exact (%d mem / %d disk), %d near, %d miss, %d evicted, %d disk errors\n",
				s.Hits+s.DiskHits, s.Hits, s.DiskHits, s.NearHits, s.Misses, s.Evictions, s.DiskErrors)
		}
		if len(ns.FailedIDs) > 0 {
			fmt.Fprintf(stdout, "  negotiation failed edges: %v\n", ns.FailedIDs)
		}
		if hs := res.EscapeHier; hs.Tiles > 0 {
			fmt.Fprintf(stdout, "  escape hier: %d tiles, corridors %d (+%d none), rungs %d corridor / %d widened / %d flat\n",
				hs.Tiles, hs.Corridors, hs.NoCorridor, hs.CorridorHits, hs.Widened, hs.FlatFallbacks)
		}
	}
	if err := pacor.Verify(d, res); err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}
	fmt.Fprintln(stdout, "  design rules verified: OK")
	if *clustersFlag {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.ClusterReport(res))
	}
	if *renderFlag {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, render.Result(d, res))
	}
	if *svgFlag != "" {
		if err := os.WriteFile(*svgFlag, []byte(render.SVG(d, res)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %s\n", *svgFlag)
	}
	if *jsonFlag != "" {
		f, err := os.Create(*jsonFlag)
		if err != nil {
			return err
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %s\n", *jsonFlag)
	}
	if *skewFlag {
		skews, err := pressure.EvaluateResult(d, res, pressure.DefaultParams())
		if err != nil {
			return err
		}
		ids := make([]int, 0, len(skews))
		for id := range skews {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Fprintln(stdout, "  simulated actuation skew per multi-valve cluster (RC units):")
		for _, id := range ids {
			fmt.Fprintf(stdout, "    cluster %d: %.1f\n", id, skews[id])
		}
	}
	if res.CompletionRate() < 1 {
		return fmt.Errorf("routing incomplete: %d/%d valves", res.RoutedValves, res.TotalValves)
	}
	return nil
}

// writeHeapProfile snapshots the heap (after a final GC, so retained memory
// dominates over garbage) into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
