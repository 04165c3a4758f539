package pacor

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/route"
	"repro/internal/seltree"
	"repro/internal/valve"
)

// TestCaptureByteIdentical routes the synthetic Table 1 benchmarks in
// every mode with the cross-run negotiation capture (Negotiate.Capture)
// unset and set, and requires the serialized results to be byte-for-byte
// identical: recording a transcript for a later warm start must never
// change the run it records. Runtime fields are zeroed before comparison —
// wall time is the one thing allowed to differ.
func TestCaptureByteIdentical(t *testing.T) {
	names := []string{"S1", "S2", "S3", "S4", "S5"}
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			d, err := bench.Generate(name)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			for _, mode := range []Mode{ModePACOR, ModeWithoutSelection, ModeDetourFirst} {
				var want []byte
				for _, capture := range []bool{false, true} {
					params := DefaultParams()
					params.Mode = mode
					var negCap route.NegotiationSeed
					if capture {
						params.Negotiate.Capture = &negCap
					}
					res, err := Route(d, params)
					if err != nil {
						t.Fatalf("%v capture=%v: %v", mode, capture, err)
					}
					if capture && len(negCap.Rounds) == 0 && res.Negotiate.Rounds > 0 {
						t.Fatalf("%v: capture recorded no negotiation rounds", mode)
					}
					got := stableJSON(t, res)
					if want == nil {
						want = got
						continue
					}
					if !bytes.Equal(want, got) {
						t.Errorf("%v: capturing run's result differs from the plain run", mode)
					}
				}
			}
		})
	}
}

// TestNegotiateCaptureHoldsMainCall: a capture set through
// Params.Negotiate.Capture records the main length-matching negotiation,
// whose edges end at every valve of every LM cluster (tree leaves and pair
// ends), not a rescue or refinement call, which negotiates one tree alone.
// Fed back as Params.Negotiate.Seed, it replays searches and leaves the
// result unchanged.
func TestNegotiateCaptureHoldsMainCall(t *testing.T) {
	d := testDesign(t)
	params := DefaultParams()
	var capture route.NegotiationSeed
	params.Negotiate.Capture = &capture
	cold, err := Route(d, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(capture.Rounds) == 0 {
		t.Fatal("capture recorded no negotiation round")
	}
	ends := map[geom.Pt]bool{}
	for _, e := range capture.Edges {
		for _, p := range append(append([]geom.Pt(nil), e.Sources...), e.Targets...) {
			ends[p] = true
		}
	}
	for _, c := range d.LMClusters {
		for _, v := range c {
			if !ends[d.Valves[v].Pos] {
				t.Errorf("valve %d of LM cluster %v ends no captured edge", v, c)
			}
		}
	}

	params.Negotiate.Seed, params.Negotiate.Capture = &capture, nil
	warm, err := Route(d, params)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Negotiate.SeededHits == 0 {
		t.Error("seeding from the capture replayed no search")
	}
	if !bytes.Equal(stableJSON(t, cold), stableJSON(t, warm)) {
		t.Error("the seeded route differs from the capturing one")
	}
}

// TestSolverILPByteIdentical routes the synthetic Table 1 benchmarks S1-S5,
// and S5 seed 1019, whose selection is the slowest for the ILP, with the
// default branch-and-bound selection and with the paper's ILP, and
// requires byte-identical results: the two exact solvers share a tie rule
// and so pick the same candidate trees.
func TestSolverILPByteIdentical(t *testing.T) {
	var designs []*valve.Design
	for _, name := range []string{"S1", "S2", "S3", "S4", "S5"} {
		d, err := bench.Generate(name)
		if err != nil {
			t.Fatalf("generate %s: %v", name, err)
		}
		designs = append(designs, d)
	}
	for _, s := range bench.Specs {
		if s.Name == "S5" {
			s.Seed = 1019
			d, err := bench.GenerateSpec(s)
			if err != nil {
				t.Fatalf("generate S5 seed 1019: %v", err)
			}
			designs = append(designs, d)
		}
	}
	for i, d := range designs {
		var want []byte
		for _, solver := range []seltree.Solver{seltree.SolverExact, seltree.SolverILP} {
			params := DefaultParams()
			params.Solver = solver
			res, err := Route(d, params)
			if err != nil {
				t.Fatalf("design %d (%s) solver %d: %v", i, d.Name, solver, err)
			}
			got := stableJSON(t, res)
			if want == nil {
				want = got
			} else if !bytes.Equal(want, got) {
				t.Errorf("design %d (%s): the ILP's result differs from the branch and bound's", i, d.Name)
			}
		}
	}
}

// stableJSON serializes res with its wall-time fields zeroed, the one thing
// two runs of one input may differ in.
func stableJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	res.Runtime = 0
	res.StageTimes = nil
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return buf.Bytes()
}
