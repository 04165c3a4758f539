package report

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/pacor"
	"repro/internal/route"
)

// TestValidateHierFlow is the flow-level half of the hierarchical escape
// property: route an XL-family design (large enough that HierAuto engages the
// hierarchy, small enough for a unit test) with the hierarchy off and forced
// on, and require both solutions to pass the full post-route gate — channel
// DRC plus the pin-side rules. The hierarchical solution may differ from the
// flat one (it is approximate); Validate is its correctness contract.
func TestValidateHierFlow(t *testing.T) {
	d, err := bench.GenerateSpec(bench.XLSpec(120, 48, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []route.HierMode{route.HierOff, route.HierOn} {
		params := pacor.DefaultParams()
		params.Hier = mode
		res, err := pacor.Route(d, params)
		if err != nil {
			t.Fatalf("hier=%v: %v", mode, err)
		}
		if err := Validate(d, res); err != nil {
			t.Fatalf("hier=%v: post-route validation: %v", mode, err)
		}
		if res.CompletionRate() < 1 {
			t.Errorf("hier=%v: completion %.3f, want 1.0", mode, res.CompletionRate())
		}
		if mode == route.HierOn && res.EscapeHier.Corridors == 0 {
			t.Error("hier=on routed no corridors; the hierarchy never engaged")
		}
	}
}

// TestValidateCatchesViolations drives Validate's own checks: a solution
// mutated to share a pin, or to end an escape off its pin, must be rejected.
func TestValidateCatchesViolations(t *testing.T) {
	d, err := bench.GenerateSpec(bench.XLSpec(120, 48, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pacor.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(d, res); err != nil {
		t.Fatalf("baseline solution rejected: %v", err)
	}
	var routed []int
	for i := range res.Clusters {
		if res.Clusters[i].Routed {
			routed = append(routed, i)
		}
	}
	if len(routed) < 2 {
		t.Skip("need two routed clusters to mutate")
	}
	origPin := res.Clusters[routed[0]].Pin
	res.Clusters[routed[0]].Pin = res.Clusters[routed[1]].Pin
	if Validate(d, res) == nil {
		t.Error("shared pin not rejected")
	}
	res.Clusters[routed[0]].Pin = origPin
	if len(res.Clusters[routed[0]].Escape) > 0 {
		for _, p := range d.Pins {
			if p != origPin && p != res.Clusters[routed[1]].Pin {
				res.Clusters[routed[0]].Pin = p
				break
			}
		}
		if res.Clusters[routed[0]].Pin != origPin {
			if Validate(d, res) == nil {
				t.Error("escape ending off its pin not rejected")
			}
			res.Clusters[routed[0]].Pin = origPin
		}
	}
	if err := Validate(d, res); err != nil {
		t.Fatalf("restored solution rejected: %v", err)
	}
}
