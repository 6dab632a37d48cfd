package main

import (
	"math"
	"math/rand"
	"testing"
)

// TestCheckCatchesCorruption builds a real batch, forms the float32
// result a correct allreduce returns, and shows the checker accepts it
// and rejects each way a result can go wrong, on the raw (width 1) and
// the fp16 (width 4) check alike.
func TestCheckCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := newPowerLaw(1<<12, 0.8, 0.21)
	for _, width := range []int{1, 4} {
		b := newBatch(rng, g, 4, width)
		want := b.want[0]
		good := make([]float32, len(want))
		lo, hi, scale := 0, 0, 0.0
		for i, w := range want {
			good[i] = float32(w)
			if w < want[lo] {
				lo = i
			}
			if w > want[hi] {
				hi = i
			}
			scale = math.Max(scale, math.Abs(w))
		}
		big := 0
		for i, v := range b.vals[0] {
			if math.Abs(float64(v)) > math.Abs(float64(b.vals[0][big])) {
				big = i
			}
		}
		bound := 0.0
		if width == 4 {
			bound = fp16Bound
		}
		if err := checkResult(good, want, b.tol[0], bound); err != nil {
			t.Fatalf("width %d: correct result rejected: %v", width, err)
		}
		corrupt := map[string]func([]float32) []float32{
			"one value off by 5% of scale": func(v []float32) []float32 { v[len(v)/2] += float32(0.05 * scale); return v },
			"contribution dropped":         func(v []float32) []float32 { v[big] -= b.vals[0][big]; return v },
			"rows swapped":                 func(v []float32) []float32 { v[lo], v[hi] = v[hi], v[lo]; return v },
			"truncated":                    func(v []float32) []float32 { return v[:len(v)-1] },
			"not a number":                 func(v []float32) []float32 { v[0] = float32(math.NaN()); return v },
		}
		for name, f := range corrupt {
			bad := f(append([]float32(nil), good...))
			if err := checkResult(bad, want, b.tol[0], bound); err == nil {
				t.Errorf("width %d: %s not caught", width, name)
			}
		}
	}
}
