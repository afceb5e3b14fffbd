package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Theorem 1's other formulas. The package computes only the bound
// (MaxStaticFraction); these state the theorem itself, so the tests can
// check the bound against it.

// MinDynamicRatio is the paper's tuning knob derived from Theorem 1:
// dratio >= 1 - fs_max.
func (p Params) MinDynamicRatio() float64 {
	return clamp01(1 - p.MaxStaticFraction())
}

// IdealTime returns t_ideal = (T1 + sum(delta_i))/p, assuming the
// excess work can be perfectly balanced; SumDelta = p * DeltaAvg.
func (p Params) IdealTime() float64 {
	if p.P <= 0 {
		return math.Inf(1)
	}
	return (p.T1 + float64(p.P)*p.DeltaAvg) / float64(p.P)
}

// ActualTime returns t_actual(fs) = fs*T1/p + deltaMax, the worst-case
// completion time when a fraction fs of the work is static and the
// noise lands entirely on one core (the proof's construction with
// phi = 1).
func (p Params) ActualTime(fs float64) float64 {
	if p.P <= 0 {
		return math.Inf(1)
	}
	return fs*p.T1/float64(p.P) + p.DeltaMax
}

// Feasible reports whether the given static fraction satisfies the
// theorem's inequality t_actual(fs) <= t_ideal.
func (p Params) Feasible(fs float64) bool {
	return p.ActualTime(fs) <= p.IdealTime()+1e-15
}

func TestTheorem1Boundary(t *testing.T) {
	// At fs = fs_max the actual time must equal the ideal time (the
	// theorem's equality point), for delta spread chosen to keep fs in
	// (0,1).
	p := Params{T1: 100, P: 10, DeltaMax: 2, DeltaAvg: 0.5}
	fs := p.MaxStaticFraction()
	if fs <= 0 || fs >= 1 {
		t.Fatalf("fs = %g not in (0,1)", fs)
	}
	if math.Abs(p.ActualTime(fs)-p.IdealTime()) > 1e-9 {
		t.Fatalf("boundary not tight: actual %g ideal %g", p.ActualTime(fs), p.IdealTime())
	}
}

func TestTheorem1Feasibility(t *testing.T) {
	p := Params{T1: 100, P: 10, DeltaMax: 2, DeltaAvg: 0.5}
	fs := p.MaxStaticFraction()
	if !p.Feasible(fs) {
		t.Fatal("fs_max must be feasible")
	}
	if p.Feasible(fs + 0.01) {
		t.Fatal("fs above the bound must be infeasible")
	}
}

func TestNoNoiseAllowsFullyStatic(t *testing.T) {
	p := Params{T1: 100, P: 10}
	if p.MaxStaticFraction() != 1 {
		t.Fatal("quiet machine admits fs = 1")
	}
	if p.MinDynamicRatio() != 0 {
		t.Fatal("quiet machine needs no dynamic work")
	}
}

func TestHugeNoiseForcesDynamic(t *testing.T) {
	p := Params{T1: 10, P: 10, DeltaMax: 100, DeltaAvg: 0}
	if p.MaxStaticFraction() != 0 {
		t.Fatal("overwhelming noise must clamp fs to 0")
	}
}

func TestExtendedDenominatorLowersStaticFraction(t *testing.T) {
	base := Params{T1: 100, P: 10, DeltaMax: 2, DeltaAvg: 0.5}
	ext := base
	ext.TCriticalPath = 5
	ext.TMigration = 1
	ext.TOverhead = 1
	// A bigger denominator tolerates more static work (section 6: the
	// terms are added to Tp in the bound's denominator).
	if ext.MaxStaticFraction() <= base.MaxStaticFraction() {
		t.Fatalf("extended fs %g <= base fs %g", ext.MaxStaticFraction(), base.MaxStaticFraction())
	}
}

func TestLargerMatrixAllowsMoreStatic(t *testing.T) {
	// Section 6: increasing T1 with architecture fixed raises fs_max.
	small := Params{T1: 10, P: 10, DeltaMax: 1, DeltaAvg: 0.2}
	big := Params{T1: 1000, P: 10, DeltaMax: 1, DeltaAvg: 0.2}
	if big.MaxStaticFraction() <= small.MaxStaticFraction() {
		t.Fatal("more work must allow a larger static fraction")
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{T1: 1, P: 2, DeltaMax: 1, DeltaAvg: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{T1: 1, P: 0}).Validate(); err == nil {
		t.Fatal("p=0 must fail validation")
	}
	if err := (Params{T1: 1, P: 2, DeltaMax: 1, DeltaAvg: 2}).Validate(); err == nil {
		t.Fatal("avg > max must fail validation")
	}
	if err := (Params{T1: -1, P: 2}).Validate(); err == nil {
		t.Fatal("negative time must fail validation")
	}
}

func TestProjectExascale(t *testing.T) {
	base := Params{T1: 480, P: 48, DeltaMax: 0.5, DeltaAvg: 0.1}
	cores := []int{48, 192, 768, 3072}
	proj := ProjectExascale(base, cores, func(p int) float64 {
		return math.Sqrt(float64(p) / 48)
	})
	if len(proj) != len(cores) {
		t.Fatal("wrong projection length")
	}
	// Section 7: the minimum dynamic percentage must grow with scale.
	for i := 1; i < len(proj); i++ {
		if proj[i].MinDynamicPct < proj[i-1].MinDynamicPct {
			t.Fatalf("dynamic share must be monotone: %+v", proj)
		}
	}
	if proj[0].Cores != 48 || proj[len(proj)-1].Cores != 3072 {
		t.Fatal("core counts mangled")
	}
}

func TestFitDeltas(t *testing.T) {
	busy := []float64{10, 12, 11, 10}
	dmax, davg := FitDeltas(busy)
	if dmax != 2 {
		t.Fatalf("deltaMax %g want 2", dmax)
	}
	if math.Abs(davg-0.75) > 1e-12 {
		t.Fatalf("deltaAvg %g want 0.75", davg)
	}
	if d, a := FitDeltas(nil); d != 0 || a != 0 {
		t.Fatal("empty input must give zeros")
	}
}

// Property: the theorem's bound is exactly the feasibility frontier for
// random parameter draws.
func TestBoundIsFrontierProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{
			T1:       10 + rng.Float64()*1000,
			P:        1 + rng.Intn(128),
			DeltaAvg: rng.Float64(),
		}
		p.DeltaMax = p.DeltaAvg + rng.Float64()*3
		fs := p.MaxStaticFraction()
		if fs > 0 && !p.Feasible(fs-1e-9) {
			return false
		}
		if fs < 1 && p.Feasible(fs+1e-6) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
