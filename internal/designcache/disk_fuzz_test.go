package designcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/pacor"
)

// FuzzDiskRecord writes arbitrary bytes as S1's disk record, under the
// file name its RawKey gives, and routes S1 through a Router on that
// directory. Whatever the bytes decode to, Route must not panic or fail,
// and what it returns must pass pacor.Verify: a record the load checks
// reject is a miss, and S1 routes cold. The seeds are the real record, its
// first half, and the record with one byte flipped.
func FuzzDiskRecord(f *testing.F) {
	d, err := bench.Generate("S1")
	if err != nil {
		f.Fatal(err)
	}
	params := pacor.DefaultParams()
	name := RawKey(d, ParamsSig(params)).String()
	seedDir := f.TempDir()
	if _, err := New(Options{Dir: seedDir}).Route(d, params); err != nil {
		f.Fatal(err)
	}
	rec, err := os.ReadFile(filepath.Join(seedDir, name))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(rec)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := New(Options{Dir: dir}).Route(d, params)
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		if err := pacor.Verify(d, res); err != nil {
			t.Fatalf("served result fails Verify: %v", err)
		}
	})
}
