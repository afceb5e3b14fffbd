package repro

import (
	"context"
	"strings"
	"testing"
)

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

func TestPublicEngine(t *testing.T) {
	eng, err := NewEngine(EngineOptions{Workers: 2, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	a := RandomMatrix(128, 128, 9)
	job, err := eng.Submit(context.Background(), FactorWork(a), Options{
		Block: 32, Workers: 2, Scheduler: ScheduleHybrid, DynamicRatio: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if job.Granted() < 1 {
		t.Fatalf("granted %d workers", job.Granted())
	}
	f := job.Factorization()
	if r := Residual(a, f); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
	b := make([]float64, 128)
	for i := range b {
		b[i] = float64(i % 7)
	}
	bm := &Matrix{Rows: len(b), Cols: 1, Stride: len(b), Data: b}
	sj, err := eng.Submit(context.Background(), SolveWork(f, bm), Options{Block: 32, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Wait(); err != nil {
		t.Fatal(err)
	}
	if r := SolveResidual(a, sj.SolutionMatrix().Col(0), b); r > 1e-10 {
		t.Fatalf("solve residual %g", r)
	}
	if st := eng.Stats(); st.JobsDone != 2 || st.JobsFailed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPublicBaselines(t *testing.T) {
	a := RandomMatrix(160, 160, 6)
	g, err := FactorGEPP(a, GEPPOptions{Block: 32, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, g); r > 1e-10 {
		t.Fatalf("GEPP residual %g", r)
	}
	b := make([]float64, 160)
	for i := range b {
		b[i] = 1
	}
	x, err := SolveIncPiv(a, b, IncPivOptions{Block: 32, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r := SolveResidual(a, x, b); r > 1e-8 {
		t.Fatalf("incpiv residual %g", r)
	}
}

func TestPublicMachines(t *testing.T) {
	if IntelXeon16().Cores() != 16 || AMDOpteron48().Cores() != 48 {
		t.Fatal("machine models wrong")
	}
}

func TestPublicExperimentList(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 18 {
		t.Fatalf("only %d experiments exposed", len(ids))
	}
}

func TestPublicRunExperiment(t *testing.T) {
	out, err := RunExperiment("table1", 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BCL / static") {
		t.Fatalf("unexpected table1 output:\n%s", out)
	}
}

func TestPublicTheoremParams(t *testing.T) {
	p := TheoremParams{T1: 100, P: 10, DeltaMax: 2, DeltaAvg: 1}
	if fs := p.MaxStaticFraction(); fs <= 0 || fs >= 1 {
		t.Fatalf("fs = %g", fs)
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

func TestPublicCholesky(t *testing.T) {
	a := RandomSPD(120, 4)
	f, err := FactorCholesky(a, Options{Layout: LayoutBlockCyclic, Block: 24, Workers: 3, Scheduler: ScheduleHybrid, DynamicRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if r := CholeskyResidual(a, f); r > 1e-12 {
		t.Fatalf("cholesky residual %g", r)
	}
	b := make([]float64, 120)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := SolveResidual(a, x, b); r > 1e-12 {
		t.Fatalf("cholesky solve residual %g", r)
	}
}
