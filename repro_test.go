package repro

import "testing"

func TestPublicFactorAndSolve(t *testing.T) {
	a := RandomMatrix(200, 200, 5)
	f, err := Factor(a, Options{
		Layout: LayoutBlockCyclic, Block: 32, Workers: 3,
		Scheduler: ScheduleHybrid, DynamicRatio: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, f); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
	b := make([]float64, 200)
	for i := range b {
		b[i] = float64(i)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := SolveResidual(a, x, b); r > 1e-10 {
		t.Fatalf("solve residual %g", r)
	}
}

func TestPublicReference(t *testing.T) {
	a := RandomMatrix(64, 64, 8)
	f, err := ReferenceLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, f); r > 1e-11 {
		t.Fatalf("reference residual %g", r)
	}
}
