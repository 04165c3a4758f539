// Command table2 regenerates the paper's Table 2: the three flow variants
// (w/o Sel, Detour First, PACOR) run on every Table 1 benchmark, reporting
// matched clusters, matched channel length, total channel length, runtime,
// and the routing completion rate.
//
// The design x mode sweep is embarrassingly parallel: each job routes
// independently (each worker generates its own design and owns its search
// workspace), so jobs fan out over a worker pool sized by -j while the
// report keeps the deterministic sequential ordering.
//
// Usage:
//
//	table2 [-designs Chip1,S3,...] [-verify] [-csv out.csv] [-j N] [-hier auto|on|off] [-stable] [-stats]
//	table2 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/pacor"
	"repro/internal/report"
	"repro/internal/route"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "table2:", err)
		os.Exit(1)
	}
}

// job is one (design, mode) cell of the sweep. Results land in rows[idx],
// preserving the sequential output order regardless of completion order.
type job struct {
	idx    int
	design string
	mode   pacor.Mode
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	fs.SetOutput(stdout)
	designsFlag := fs.String("designs", "", "comma-separated design names (default: all)")
	verify := fs.Bool("verify", true, "verify design rules of every solution")
	csvFlag := fs.String("csv", "", "also write the raw rows as CSV to this file")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "parallel routing jobs (1 = sequential)")
	stable := fs.Bool("stable", false, "zero out runtimes for byte-stable output (determinism checks)")
	statsFlag := fs.Bool("stats", false, "append per-job negotiation counters to the report")
	hierFlag := fs.String("hier", "auto", "hierarchical two-stage escape routing: auto (on above the Table 1 scale), on, off")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		*workers = 1
	}
	hier, err := route.ParseHierMode(*hierFlag)
	if err != nil {
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
				fmt.Fprintln(os.Stderr, "table2: memprofile:", err)
			}
		}()
	}

	names := bench.Names()
	if *designsFlag != "" {
		names = strings.Split(*designsFlag, ",")
	}
	// Fail fast on unknown designs before spawning workers.
	for _, name := range names {
		if !bench.Known(name) {
			return fmt.Errorf("unknown design %q", name)
		}
	}
	modes := []pacor.Mode{pacor.ModeWithoutSelection, pacor.ModeDetourFirst, pacor.ModePACOR}

	jobs := make([]job, 0, len(names)*len(modes))
	for _, name := range names {
		for _, mode := range modes {
			jobs = append(jobs, job{idx: len(jobs), design: name, mode: mode})
		}
	}
	rows := make([]report.Row, len(jobs))
	errs := make([]error, len(jobs))

	next := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				rows[j.idx], errs[j.idx] = runJob(j, *verify, hier)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	// Report the first error in sequential order, independent of worker
	// scheduling.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	if *stable {
		for i := range rows {
			rows[i].Result.Runtime = 0
			rows[i].Result.StageTimes = nil
		}
	}
	fmt.Fprint(stdout, report.Table2(rows))
	if *statsFlag {
		fmt.Fprintln(stdout, "negotiation stats (rounds / searches):")
		for _, r := range rows {
			ns := r.Result.Negotiate
			fmt.Fprintf(stdout, "  %-6s %-12s %d / %d\n", r.Design, r.Mode, ns.Rounds, ns.Searches)
			if hs := r.Result.EscapeHier; hs.Tiles > 0 {
				fmt.Fprintf(stdout, "  %-6s %-12s escape hier: corridors %d (+%d none), rungs %d / %d / %d\n",
					r.Design, r.Mode, hs.Corridors, hs.NoCorridor, hs.CorridorHits, hs.Widened, hs.FlatFallbacks)
			}
		}
	}
	if *csvFlag != "" {
		if err := writeCSV(*csvFlag, rows); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvFlag)
	}
	return nil
}

// runJob routes one design with one mode. The design is generated inside the
// worker so no mutable state is shared between jobs.
func runJob(j job, verify bool, hier route.HierMode) (report.Row, error) {
	d, err := bench.Generate(j.design)
	if err != nil {
		return report.Row{}, err
	}
	params := pacor.DefaultParams()
	params.Mode = j.mode
	params.Hier = hier
	res, err := pacor.Route(d, params)
	if err != nil {
		return report.Row{}, fmt.Errorf("%s/%s: %w", j.design, j.mode, err)
	}
	if verify {
		if err := pacor.Verify(d, res); err != nil {
			return report.Row{}, fmt.Errorf("%s/%s: verification failed: %w", j.design, j.mode, err)
		}
	}
	return report.Row{Design: j.design, Mode: j.mode, Result: res}, nil
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

func writeCSV(path string, rows []report.Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{
		"design", "mode", "clusters", "matched", "matched_length",
		"total_length", "routed_valves", "total_valves", "runtime_ms",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		res := r.Result
		if err := w.Write([]string{
			r.Design, r.Mode.String(),
			strconv.Itoa(res.MultiClusters), strconv.Itoa(res.MatchedClusters),
			strconv.Itoa(res.MatchedLen), strconv.Itoa(res.TotalLen),
			strconv.Itoa(res.RoutedValves), strconv.Itoa(res.TotalValves),
			fmt.Sprintf("%.2f", float64(res.Runtime.Microseconds())/1000),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
