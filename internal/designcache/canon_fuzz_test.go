package designcache

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pacor"
	"repro/internal/valve"
)

// randomDesign builds a small syntactically valid design deterministically
// from seed: unique valve positions, a few obstacles and pins (duplicates
// allowed — they hash as sets/sequences, not geometry), and LM clusters over
// a prefix of the valves.
func randomDesign(seed uint64) *valve.Design {
	rng := rand.New(rand.NewSource(int64(seed)))
	w, h := 8+rng.Intn(32), 8+rng.Intn(32)
	nv := 2 + rng.Intn(10)
	d := &valve.Design{Name: "fuzz", W: w, H: h, Delta: rng.Intn(4)}
	used := map[geom.Pt]bool{}
	for i := 0; i < nv; i++ {
		var p geom.Pt
		for {
			p = geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
			if !used[p] {
				break
			}
		}
		used[p] = true
		seq := make(valve.Seq, 1+rng.Intn(4))
		statuses := []valve.Status{valve.Open, valve.Closed, valve.DontC}
		for j := range seq {
			seq[j] = statuses[rng.Intn(len(statuses))]
		}
		d.Valves = append(d.Valves, valve.Valve{ID: i, Pos: p, Seq: seq})
	}
	for i := rng.Intn(6); i > 0; i-- {
		d.Obstacles = append(d.Obstacles, geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)})
	}
	for i := 1 + rng.Intn(6); i > 0; i-- {
		d.Pins = append(d.Pins, geom.Pt{X: rng.Intn(w), Y: 0})
	}
	for id := 0; id+1 < nv && rng.Intn(2) == 0; {
		size := 2 + rng.Intn(3)
		if id+size > nv {
			size = nv - id
		}
		c := make([]int, size)
		for i := range c {
			c[i] = id + i
		}
		d.LMClusters = append(d.LMClusters, c)
		id += size
	}
	return d
}

// shuffledObstacles returns d renamed and with its obstacle list shuffled:
// a presentation of the same chip the key must not see.
func shuffledObstacles(d *valve.Design, seed uint64) *valve.Design {
	rng := rand.New(rand.NewSource(int64(seed)))
	p := *d
	p.Name = d.Name + "-shuffled"
	p.Obstacles = append([]geom.Pt(nil), d.Obstacles...)
	rng.Shuffle(len(p.Obstacles), func(i, j int) {
		p.Obstacles[i], p.Obstacles[j] = p.Obstacles[j], p.Obstacles[i]
	})
	return &p
}

// shuffledValves returns d with its valves permuted (IDs re-densified, LM
// clusters remapped): the same chip, but an order the flow can see.
func shuffledValves(d *valve.Design, seed uint64) *valve.Design {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := len(d.Valves)
	perm := rng.Perm(n) // perm[newIndex] = oldIndex
	newID := make([]int, n)
	p := *d
	p.Valves = make([]valve.Valve, n)
	for ni, oi := range perm {
		newID[oi] = ni
		v := d.Valves[oi]
		p.Valves[ni] = valve.Valve{ID: ni, Pos: v.Pos, Seq: v.Seq}
	}
	p.LMClusters = make([][]int, len(d.LMClusters))
	for ci, c := range d.LMClusters {
		cc := make([]int, len(c))
		for i, id := range c {
			cc[i] = newID[id]
		}
		p.LMClusters[ci] = cc
	}
	return &p
}

// FuzzCanonKey: RawKey ignores obstacle order and the design name, and
// changes with valve order, a moved valve, and the parameter signature.
func FuzzCanonKey(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(987654321), uint64(123456789))
	f.Fuzz(func(t *testing.T, seed, permSeed uint64) {
		d := randomDesign(seed)
		sig := ParamsSig(pacor.DefaultParams())
		raw := RawKey(d, sig)

		if got := RawKey(shuffledObstacles(d, permSeed), sig); got != raw {
			t.Fatalf("key saw obstacle order or name:\n orig %v\n shuf %v", raw, got)
		}
		p := shuffledValves(d, permSeed)
		permuted := false
		for i := range p.Valves {
			if p.Valves[i].Pos != d.Valves[i].Pos {
				permuted = true
				break
			}
		}
		if permuted && RawKey(p, sig) == raw {
			t.Fatal("key ignored a valve reordering")
		}

		// Semantic change: move valve 0 to any free cell.
		occupied := map[geom.Pt]bool{}
		for i := range d.Valves {
			occupied[d.Valves[i].Pos] = true
		}
		moved := *d
		moved.Valves = append([]valve.Valve(nil), d.Valves...)
		for y := 0; y < d.H; y++ {
			for x := 0; x < d.W; x++ {
				if !occupied[geom.Pt{X: x, Y: y}] {
					moved.Valves[0].Pos = geom.Pt{X: x, Y: y}
					y = d.H
					break
				}
			}
		}
		if moved.Valves[0].Pos != d.Valves[0].Pos && RawKey(&moved, sig) == raw {
			t.Fatal("key missed a moved valve")
		}

		// A different parameter signature partitions the key space.
		if RawKey(d, sig+";x") == raw {
			t.Fatal("key ignored the parameter signature")
		}
	})
}
