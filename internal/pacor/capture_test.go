package pacor

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/route"
)

// TestWorkerCountByteIdentical routes the synthetic Table 1 benchmarks in
// every mode with the cross-run captures (NegCapture, LMCapture) unset and
// set, and requires the serialized results to be byte-for-byte identical:
// recording a transcript for a later warm start must never change the run
// it records. Runtime fields are zeroed before comparison — wall time is
// the one thing allowed to differ.
func TestWorkerCountByteIdentical(t *testing.T) {
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
					var lmCap LMSeed
					if capture {
						params.NegCapture = &negCap
						params.LMCapture = &lmCap
					}
					res, err := Route(d, params)
					if err != nil {
						t.Fatalf("%v capture=%v: %v", mode, capture, err)
					}
					if capture && len(negCap.Rounds) == 0 && res.Negotiate.Rounds > 0 {
						t.Fatalf("%v: capture recorded no negotiation rounds", mode)
					}
					res.Runtime = 0
					res.StageTimes = nil
					var buf bytes.Buffer
					if err := res.WriteJSON(&buf); err != nil {
						t.Fatalf("%v capture=%v: marshal: %v", mode, capture, err)
					}
					if want == nil {
						want = buf.Bytes()
						continue
					}
					if !bytes.Equal(want, buf.Bytes()) {
						t.Errorf("%v: capturing run's result differs from the plain run", mode)
					}
				}
			}
		})
	}
}
