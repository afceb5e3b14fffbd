// Package noise provides deterministic generators of transient "excess
// work" — the paper's delta_i (section 6): OS daemons, interrupts and
// other system events that steal cycles from a core at unpredictable
// times. The generators are seeded so simulated experiments are exactly
// reproducible.
package noise

import (
	"math"
	"math/rand"
)

// Generator yields the extra delay a core suffers while executing a
// task of duration dur starting at time start (virtual seconds). A
// Generator is owned by a single simulation; Reset re-seeds it.
type Generator interface {
	// Delay returns the excess seconds appended to the task execution.
	Delay(core int, start, dur float64) float64
	// Reset re-seeds all per-core streams.
	Reset(seed int64)
}

// None is the silent generator.
type None struct{}

// Delay implements Generator; it always returns zero.
func (None) Delay(core int, start, dur float64) float64 { return 0 }

// Reset implements Generator.
func (None) Reset(seed int64) {}

// Poisson models noise bursts arriving as a Poisson process on each
// core (rate bursts/second) with exponentially distributed burst
// lengths (mean seconds) — the standard model for asynchronous OS
// interference, and the one the paper's delta analysis assumes when it
// speaks of transient load imbalance occurring with some probability.
type Poisson struct {
	Rate float64 // bursts per second per core
	Mean float64 // mean burst length, seconds
	rngs []*rand.Rand
	seed int64
}

// NewPoisson returns a seeded Poisson noise generator.
func NewPoisson(rate, mean float64, seed int64) *Poisson {
	p := &Poisson{Rate: rate, Mean: mean}
	p.Reset(seed)
	return p
}

// Reset implements Generator.
func (p *Poisson) Reset(seed int64) {
	p.seed = seed
	p.rngs = nil
}

func (p *Poisson) rng(core int) *rand.Rand {
	for len(p.rngs) <= core {
		p.rngs = append(p.rngs, rand.New(rand.NewSource(p.seed+int64(len(p.rngs))*7919+1)))
	}
	return p.rngs[core]
}

// Delay implements Generator: the number of bursts in dur is Poisson
// with mean Rate*dur; each burst adds Exp(Mean) seconds.
func (p *Poisson) Delay(core int, start, dur float64) float64 {
	if p.Rate <= 0 || p.Mean <= 0 || dur <= 0 {
		return 0
	}
	r := p.rng(core)
	lambda := p.Rate * dur
	// Sample Poisson via inversion for small lambda (always the case
	// for task-sized intervals), falling back to normal approximation.
	var k int
	if lambda < 30 {
		l := math.Exp(-lambda)
		pp := 1.0
		for {
			pp *= r.Float64()
			if pp <= l {
				break
			}
			k++
		}
	} else {
		k = int(lambda + math.Sqrt(lambda)*r.NormFloat64() + 0.5)
		if k < 0 {
			k = 0
		}
	}
	total := 0.0
	for i := 0; i < k; i++ {
		total += r.ExpFloat64() * p.Mean
	}
	return total
}
