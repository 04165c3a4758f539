package valve_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/designcache"
	"repro/internal/geom"
	"repro/internal/valve"
)

// FuzzJSONPresentationCanon pins that the cache key depends only on the
// parsed design, never on its JSON presentation: the same design bytes
// re-serialized compactly, re-indented, and round-tripped through a
// generic map (which re-orders object fields — Go marshals map keys
// sorted, structs in declaration order) must parse to an identical RawKey.
// Valve-order permutations (semantic, key-visible) are covered by
// FuzzCanonKey in internal/designcache.
func FuzzJSONPresentationCanon(f *testing.F) {
	seed := func(d *valve.Design) {
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(fuzzDesign())
	f.Add([]byte(`{"name":"x","width":3,"height":3,"delta":1,"valves":[{"pos":[1,1],"seq":"0"}],"pins":[[0,0]]}`))
	f.Add([]byte(`{}`))
	const sig = "fuzz-sig"
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := valve.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		wantRaw := designcache.RawKey(d, sig)

		// Compact: strip all inter-token whitespace.
		var compact bytes.Buffer
		canonical, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted design fails to marshal: %v", err)
		}
		if err := json.Compact(&compact, canonical); err != nil {
			t.Fatalf("compact: %v", err)
		}

		// Map round-trip: object fields come back alphabetized, numbers
		// go through float64, and the indentation changes.
		var m map[string]any
		if err := json.Unmarshal(canonical, &m); err != nil {
			t.Fatalf("map round-trip decode: %v", err)
		}
		reordered, err := json.MarshalIndent(m, " ", "\t")
		if err != nil {
			t.Fatalf("map round-trip encode: %v", err)
		}

		for _, alt := range [][]byte{compact.Bytes(), reordered} {
			got, err := valve.Read(bytes.NewReader(alt))
			if err != nil {
				t.Fatalf("reformatted presentation rejected: %v\n%s", err, alt)
			}
			if k := designcache.RawKey(got, sig); k != wantRaw {
				t.Fatalf("RawKey changed under reformatting:\n%s", alt)
			}
		}
	})
}

func fuzzDesign() *valve.Design {
	seq := func(s string) valve.Seq {
		q, err := valve.ParseSeq(s)
		if err != nil {
			panic(err)
		}
		return q
	}
	p := func(x, y int) geom.Pt { return geom.Pt{X: x, Y: y} }
	return &valve.Design{
		Name: "fz", W: 8, H: 8, Delta: 1,
		Valves: []valve.Valve{
			{ID: 0, Pos: p(2, 2), Seq: seq("01")},
			{ID: 1, Pos: p(5, 5), Seq: seq("0X")},
		},
		Obstacles:  []geom.Pt{p(4, 4)},
		Pins:       []geom.Pt{p(0, 3), p(7, 3)},
		LMClusters: [][]int{{0, 1}},
	}
}
