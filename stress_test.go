package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/pacor"
)

// TestStressScale runs the flow on a workload larger than any Table 1
// design (96 valves, 24 LM clusters on a 256x256 grid) and demands full
// completion with verified design rules — scalability headroom beyond the
// paper's benchmark suite. Its first escape round fails only on LM taps
// walled into pin-less pockets, so the flow relaxes them and decides the
// round with one min-cost flow solve where the retry loop took two; the
// pinned matched count and lengths also pin that path.
func TestStressScale(t *testing.T) {
	if testing.Short() {
		t.Skip("stress workload skipped in -short mode")
	}
	d, err := bench.GenerateSpec(bench.StressSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pacor.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := pacor.Verify(d, res); err != nil {
		t.Fatal(err)
	}
	if res.CompletionRate() != 1.0 {
		t.Errorf("completion %.3f, want 1.0", res.CompletionRate())
	}
	if res.MultiClusters != 24 || res.MatchedClusters != 22 {
		t.Errorf("clusters %d/%d, want 22/24 matched", res.MatchedClusters, res.MultiClusters)
	}
	if res.MatchedLen != 2082 || res.TotalLen != 3717 {
		t.Errorf("lengths %d/%d, want 2082/3717", res.MatchedLen, res.TotalLen)
	}
	t.Logf("stress: %d/%d matched, total length %d, runtime %v",
		res.MatchedClusters, res.MultiClusters, res.TotalLen, res.Runtime)
}
