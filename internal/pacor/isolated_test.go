package pacor

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
)

// TestEscapeCertificateByteIdentical routes designs whose first escape
// round fails only on LM taps walled into pin-less pockets, with
// relaxIsolated on and off, and requires byte-identical results: deciding
// such a round with one solve must return what the two solves return.
// Every case but one must see the certificate fire; in Stress 9008 under
// "w/o Sel" the relaxed solve leaves a cluster unrouted, so that case must
// take the fallback. Short mode leaves out Chip1, the slowest design.
func TestEscapeCertificateByteIdentical(t *testing.T) {
	spec := func(s bench.Spec, seed int64) bench.Spec {
		s.Seed = seed
		return s
	}
	table := func(name string) bench.Spec {
		for _, s := range bench.Specs {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("no Table 1 spec %s", name)
		return bench.Spec{}
	}
	all := []Mode{ModePACOR, ModeWithoutSelection, ModeDetourFirst}
	cases := []struct {
		spec     bench.Spec
		modes    []Mode
		fallback bool
	}{
		{spec(bench.StressSpec(), 9001), all, false},
		{spec(bench.StressSpec(), 9002), all, false},
		{spec(table("S5"), 1022), all, false},
		{spec(bench.StressSpec(), 9008), []Mode{ModeWithoutSelection}, true},
		{spec(table("Chip1"), 1001), all, false},
	}
	if testing.Short() {
		cases = cases[:4]
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%d", c.spec.Name, c.spec.Seed), func(t *testing.T) {
			d, err := bench.GenerateSpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range c.modes {
				route := func(off bool) ([]byte, *isoProbe) {
					params := DefaultParams()
					params.Mode = mode
					params.isoProbe = &isoProbe{off: off}
					res, err := Route(d, params)
					if err != nil {
						t.Fatalf("%v: %v", mode, err)
					}
					return stableJSON(t, res), params.isoProbe
				}
				want, _ := route(true)
				got, p := route(false)
				if !bytes.Equal(want, got) {
					t.Errorf("%v: result with the certificate differs from the result without it", mode)
				}
				if c.fallback && p.fellBack == 0 {
					t.Errorf("%v: no fallback taken (certificate fired %d times)", mode, p.fired)
				}
				if !c.fallback && p.fired == 0 {
					t.Errorf("%v: certificate never fired (fell back %d times)", mode, p.fellBack)
				}
			}
		})
	}
}
