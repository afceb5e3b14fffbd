package kernel

import "math"

// The AVX2 pivot search vectorizes the two-pass idamax of getf2Micro:
// a VANDPD absolute-value + VMAXPD max reduction over the column, then
// (only when the max beats the head element) a VCMPPD equality scan for
// its first occurrence. VMAXPD returns its second source when either
// operand is NaN; the accumulator — which starts at zero and therefore
// is never NaN — is kept in that slot, so NaN candidates lose every
// contest exactly as in the scalar code. The equality scan uses the
// ordered predicate EQ_OQ, which NaNs also fail, and Inf == Inf holds,
// matching the scalar == rematch pass.

//go:noescape
func maxAbsAVX2(n int, x *float64) float64

//go:noescape
func findAbsAVX2(n int, x *float64, target float64) int

// idamaxRangeAVX2 mirrors idamaxRangeGeneric's semantics — index of the
// first maximum |col[i]| over [k, m), NaNs losing all comparisons —
// with the interior of both passes vectorized. Short ranges fall back
// to the generic search, where vector startup cost exceeds the scan.
func idamaxRangeAVX2(col []float64, k, m int) (int, float64) {
	if m-k < 16 {
		return idamaxRangeGeneric(col, k, m)
	}
	vmax := math.Abs(col[k])
	base := k + 1
	vec := (m - base) &^ 3
	m0 := maxAbsAVX2(vec, &col[base])
	for i := base + vec; i < m; i++ {
		if v := math.Abs(col[i]); v > m0 {
			m0 = v
		}
	}
	if m0 > vmax {
		if idx := findAbsAVX2(vec, &col[base], m0); idx >= 0 {
			return base + idx, m0
		}
		for i := base + vec; i < m; i++ {
			if math.Abs(col[i]) == m0 {
				return i, m0
			}
		}
	}
	return k, vmax
}
