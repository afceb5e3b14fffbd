// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.

package cluster

// eiselLemire64 is ported from the Go standard library's
// strconv/eisel_lemire.go (Go 1.24), which follows the Eisel–Lemire
// algorithm of Lemire, "Number Parsing at a Gigabyte per Second" (arXiv
// 2101.11408), as explained at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html. The function
// body is strconv's but for the table's name; the table, powTen, keeps
// only the exponents a matrix body needs.

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// eiselLemire64 returns the float64 nearest to ±man × 10^exp10, or ok
// false when it cannot decide that value from a 128-bit product: exp10
// outside powTen, a product too close to a rounding boundary, an exact
// halfway case, or a result that is subnormal or overflows.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments in this function body refer to sections of the
	// https://nigeltao.github.io/blog/2020/eisel-lemire.html blog post.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < powTenMinExp10 || powTenMaxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, powTen[exp10-powTenMinExp10][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, powTen[exp10-powTenMinExp10][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// powTen{Min,Max}Exp10 are the powers of 10 of powTen's first and last
// rows, both inclusive. json.Marshal writes a float64 in at most 17
// significant digits, so the rows cover what it writes for magnitudes
// from about 1e-13 to 1e19; scanNumber hands anything else to
// strconv.ParseFloat.
const (
	powTenMinExp10 = -30
	powTenMaxExp10 = +22
)

// powTen holds the 128-bit mantissas of the powers of 10, rounded down,
// as {low, high} 64-bit halves: strconv's detailedPowersOfTen rows for
// 1e-30 to 1e22, computed here. The binary exponents are implied by a
// linear expression with slope 217706/65536 ≈ log(10)/log(2).
var powTen = func() (rows [powTenMaxExp10 - powTenMinExp10 + 1][2]uint64) {
	for i := range rows {
		e := i + powTenMinExp10
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		q := new(big.Int).Lsh(p, uint(128-p.BitLen()))
		if e < 0 { // 10^-e is no power of two: 2^(127+len)/10^-e fills 128 bits
			q.Quo(q.Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		}
		var b [16]byte
		q.FillBytes(b[:])
		rows[i] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	return rows
}()
