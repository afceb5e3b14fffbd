package engine

import (
	"testing"
	"time"
)

func newRateEngine() *Engine {
	e := &Engine{}
	for c := range e.rates {
		e.rates[c] = ratePrior
	}
	return e
}

// TestPerClassRatesIndependent: a burst of fast factor completions must
// not inflate the solve class's service-rate estimate (and vice versa)
// — the skew the split estimator exists to remove.
func TestPerClassRatesIndependent(t *testing.T) {
	e := newRateEngine()
	// Factors completing at 10 flops/ns, well above the 1.0 prior.
	for i := 0; i < 20; i++ {
		e.observeRateLocked(&Job{work: Work{rate: rateGemm, flops: 1e9}}, 100*time.Millisecond)
	}
	if e.rates[rateGemm] <= 2*ratePrior {
		t.Fatalf("gemm rate %v did not move toward the observed 10 flops/ns", e.rates[rateGemm])
	}
	if e.rates[rateMem] != ratePrior {
		t.Fatalf("solve rate %v moved on factor-only traffic", e.rates[rateMem])
	}
	// Solves completing at 0.1 flops/ns.
	for i := 0; i < 20; i++ {
		e.observeRateLocked(&Job{work: Work{rate: rateMem, flops: 1e8}}, time.Second)
	}
	if e.rates[rateMem] >= ratePrior {
		t.Fatalf("solve rate %v did not move toward the observed 0.1 flops/ns", e.rates[rateMem])
	}
	// Same flop count now estimates ~100x longer as a solve than as a
	// factor — the class split admission decisions depend on.
	estF := e.estServiceLocked(&Job{work: Work{rate: rateGemm, flops: 1e9}})
	estS := e.estServiceLocked(&Job{work: Work{rate: rateMem, flops: 1e9}})
	if estS < 10*estF {
		t.Fatalf("per-class estimates barely differ: factor %v solve %v", estF, estS)
	}
}

// TestCompositeSplitsFlopsByClass: a fused composite's estimate is the
// sum of its members' per-class predictions, and observing its span
// updates both classes (attributed by predicted share), not just one.
func TestCompositeSplitsFlopsByClass(t *testing.T) {
	e := newRateEngine()
	e.rates[rateGemm] = 10
	e.rates[rateMem] = 0.1
	comp := &Job{
		role: roleComposite,
		members: []*Job{
			{work: Work{rate: rateGemm, flops: 1e9}},
			{work: Work{rate: rateGemm, flops: 1e9}},
			{work: Work{rate: rateMem, flops: 1e8}},
		},
	}
	fl := classFlops(comp)
	if fl[rateGemm] != 2e9 || fl[rateMem] != 1e8 {
		t.Fatalf("classFlops = %v, want [2e9 1e8]", fl)
	}
	// Predicted: 2e9/10 + 1e8/0.1 = 0.2s + 1s = 1.2s.
	if got, want := e.estServiceLocked(comp), 1200*time.Millisecond; got != want {
		t.Fatalf("composite estimate %v, want %v", got, want)
	}
	// A span exactly matching the prediction is a fixed point: both
	// class rates observe their own predicted rate and must not move.
	g0, m0 := e.rates[rateGemm], e.rates[rateMem]
	e.observeRateLocked(comp, 1200*time.Millisecond)
	const eps = 1e-9
	if d := e.rates[rateGemm] - g0; d > eps || d < -eps {
		t.Errorf("gemm rate moved %v on a perfectly predicted span", d)
	}
	if d := e.rates[rateMem] - m0; d > eps || d < -eps {
		t.Errorf("mem rate moved %v on a perfectly predicted span", d)
	}
	// A faster-than-predicted span raises both.
	e.observeRateLocked(comp, 600*time.Millisecond)
	if e.rates[rateGemm] <= g0 || e.rates[rateMem] <= m0 {
		t.Errorf("rates [%v %v] did not rise on a 2x-faster span", e.rates[rateGemm], e.rates[rateMem])
	}
}

// TestObserveRateIgnoresDegenerate: zero/negative spans and zero-flop
// jobs must leave the estimates untouched.
func TestObserveRateIgnoresDegenerate(t *testing.T) {
	e := newRateEngine()
	e.observeRateLocked(&Job{work: Work{rate: rateGemm, flops: 1e9}}, 0)
	e.observeRateLocked(&Job{work: Work{rate: rateGemm, flops: 1e9}}, -time.Second)
	e.observeRateLocked(&Job{work: Work{rate: rateMem, flops: 0}}, time.Second)
	for c, r := range e.rates {
		if r != ratePrior {
			t.Errorf("class %d rate %v mutated by degenerate observations", c, r)
		}
	}
}
