package main

import (
	"fmt"
	"math"
)

// fp16Bound is the quantized-path accuracy bound: the largest error
// over a rank's result relative to the largest reference magnitude,
// the same definition and bound the repository's fp16 accuracy tests
// apply.
const fp16Bound = 2e-2

// checkResult compares one rank's reduced values with the exact
// reference: raw results must agree to float32 summation rounding
// (tol), quantized ones within relBound of the rank's reference scale.
// It returns nil when the result is correct.
func checkResult(got []float32, want, tol []float64, relBound float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d values, want %d", len(got), len(want))
	}
	if relBound > 0 {
		scale, worst := 0.0, 0.0
		for i, w := range want {
			scale = math.Max(scale, math.Abs(w))
			worst = math.Max(worst, math.Abs(float64(got[i])-w))
		}
		if scale > 0 {
			worst /= scale
		}
		if !(worst <= relBound) {
			return fmt.Errorf("relative error %.4g exceeds %.4g", worst, relBound)
		}
		return nil
	}
	for i, w := range want {
		if d := math.Abs(float64(got[i]) - w); !(d <= tol[i]) {
			return fmt.Errorf("value %d: got %v, want %v (tolerance %.3g)", i, got[i], w, tol[i])
		}
	}
	return nil
}
