//go:build !amd64

package info

import "math"

// log2 is math.Log2. Only amd64 has an inline expansion (log2_amd64.go).
func log2(x float64) float64 { return math.Log2(x) }
