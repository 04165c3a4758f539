package lint

// Analyzers returns the default registry, in stable order. The first five
// are the syntax-level checks from the original gate; the rest are the
// dataflow-aware concurrency/determinism checks built on internal/lint/cfg
// (journalpair and the rewired wsaliasing/snapshotread additionally
// consume the interprocedural summaries from internal/lint/summaries.go).
// The final three are the spawn-graph race check (sharedcapture),
// WaitGroup/channel hygiene (conchygiene), and the mcf arena pairing
// contract (mcfpair).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerMapOrder,
		AnalyzerHotAlloc,
		AnalyzerFloatEq,
		AnalyzerLibErrs,
		AnalyzerNoStdout,
		AnalyzerWsAliasing,
		AnalyzerSnapshotRead,
		AnalyzerJournalPair,
		AnalyzerNonDeterm,
		AnalyzerSharedCapture,
		AnalyzerConcHygiene,
		AnalyzerMcfPair,
	}
}

// Hot packages carry the zero-allocation invariant from the workspace
// refactor: every search on the inner routing loop must reuse buffers.
// Matched by path suffix so fixtures can opt in with //pacor:pkgpath.
var hotPackages = []string{"internal/route", "internal/grid"}

// Numeric packages where direct float equality endangers simplex pivoting
// and DME merging-segment stability.
var floatPackages = []string{"internal/lp", "internal/ilp", "internal/geom", "internal/dme"}
