package noise

import "testing"

func TestNoneIsSilent(t *testing.T) {
	var g None
	if g.Delay(0, 0, 1) != 0 {
		t.Fatal("None must be silent")
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := NewPoisson(100, 1e-3, 7)
	b := NewPoisson(100, 1e-3, 7)
	for i := 0; i < 100; i++ {
		da := a.Delay(i%4, float64(i), 0.01)
		db := b.Delay(i%4, float64(i), 0.01)
		if da != db {
			t.Fatalf("same seed diverged at %d: %g vs %g", i, da, db)
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	g := NewPoisson(50, 200e-6, 3)
	total := 0.0
	samples := 4000
	for i := 0; i < samples; i++ {
		total += g.Delay(0, 0, 0.01)
	}
	// Expected extra per 10ms interval: 50*0.01*200e-6 = 100us.
	mean := total / float64(samples)
	if mean < 50e-6 || mean > 200e-6 {
		t.Fatalf("poisson mean delay %g far from 100us", mean)
	}
}

func TestPoissonZeroConfig(t *testing.T) {
	g := NewPoisson(0, 0, 1)
	if g.Delay(0, 0, 1) != 0 {
		t.Fatal("zero-rate poisson must be silent")
	}
}

func TestPoissonPerCoreStreamsIndependent(t *testing.T) {
	g := NewPoisson(1000, 1e-4, 11)
	same := true
	for i := 0; i < 10; i++ {
		if g.Delay(0, 0, 0.01) != g.Delay(1, 0, 0.01) {
			same = false
		}
	}
	if same {
		t.Fatal("cores share a noise stream")
	}
}

func TestResetReproduces(t *testing.T) {
	g := NewPoisson(100, 1e-3, 9)
	first := g.Delay(0, 0, 0.01)
	g.Delay(0, 0.01, 0.01)
	g.Reset(9)
	if g.Delay(0, 0, 0.01) != first {
		t.Fatal("reset did not restore the stream")
	}
}
