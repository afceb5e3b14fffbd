// Package tunegate is the tunegate analyzer corpus: a miniature of the
// kernel package's gate/profile-state shape. Lines with trailing
// "want" comments expect a finding whose message matches the pattern.
package tunegate

//hsd:profile-state
var (
	kc = 256
	mc = 128
)

//hsd:profile-state
var minFlops = 32 * 32 * 32

// untracked is not profile state: reading it needs no gate.
var untracked = 7

var tuned bool

func ensureTuned() { tuned = true }

// Gated reads profile state behind the gate: clean.
func Gated() int {
	ensureTuned()
	return kc * mc
}

// Ungated reads profile state with no gate at all.
func Ungated() int { // want `exported function Ungated reads kc`
	return kc
}

// LateGate reads minFlops before its gate runs.
func LateGate() int { // want `exported function LateGate reads minFlops`
	v := minFlops
	ensureTuned()
	return v
}

// CondGate only gates on one path; a conditional gate is no gate.
func CondGate(deep bool) int { // want `exported function CondGate reads kc`
	if deep {
		ensureTuned()
	}
	return kc
}

// reader is unexported; its exposure matters only to its callers.
func reader() int { return mc }

// Transitive reaches profile state through an ungated helper.
func Transitive() int { // want `exported function Transitive calls reader`
	return reader()
}

// GatedTransitive gates before the helper call: clean.
func GatedTransitive() int {
	ensureTuned()
	return reader()
}

// ViaGated calls a function that gates itself, so no local gate is
// needed: clean (the false-positive guard for the Trsm-over-Gemm
// shape).
func ViaGated() int {
	return Gated()
}

// GateAfterValidation runs profile-free validation before the gate,
// like an argument check ahead of the gate: clean.
func GateAfterValidation(n int) int {
	if n < 0 {
		panic("bad n")
	}
	ensureTuned()
	return kc * n
}

// ReadsUntracked touches only unmarked package state: clean.
func ReadsUntracked() int {
	return untracked
}

// Allowed is an intentional ungated read, suppressed by pragma.
//
//hsd:allow tunegate boot-time introspection that runs before any kernel dispatch
func Allowed() int {
	return mc
}
