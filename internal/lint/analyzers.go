package lint

// Analyzers returns the default registry, in stable order. The first five
// are the syntax-level checks from the original gate; the last one,
// nondeterm, also follows wall-clock values through the assignments of one
// function body at a time.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerMapOrder,
		AnalyzerHotAlloc,
		AnalyzerFloatEq,
		AnalyzerLibErrs,
		AnalyzerNoStdout,
		AnalyzerNonDeterm,
	}
}

// Hot packages carry the zero-allocation invariant from the workspace
// refactor: every search on the inner routing loop must reuse buffers.
// Matched by path suffix so fixtures can opt in with //pacor:pkgpath.
var hotPackages = []string{"internal/route", "internal/grid"}

// Numeric packages where direct float equality endangers simplex pivoting
// and DME merging-segment stability.
var floatPackages = []string{"internal/lp", "internal/ilp", "internal/geom", "internal/dme"}
