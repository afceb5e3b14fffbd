package noise

import (
	"sync"
	"testing"
	"time"
)

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

func TestRealAdapter(t *testing.T) {
	fn := RealAdapter(NewPoisson(1000, 1e-3, 1), time.Millisecond)
	var total time.Duration
	for i := 0; i < 100; i++ {
		total += fn(0)
	}
	// 1000 bursts/s of 1ms on average, task 1ms: roughly one burst per
	// call.
	if total < 50*time.Millisecond || total > 150*time.Millisecond {
		t.Fatalf("adapter total %v far from ~100ms", total)
	}
}

// TestRealAdapterConcurrentWorkers: the real runtime calls one adapter
// from every worker goroutine, so it must be race-free (run under
// -race), and each worker must see its own per-core stream on its own
// clock — the same delays it would get calling the generator alone.
func TestRealAdapterConcurrentWorkers(t *testing.T) {
	const workers, calls = 4, 500
	const dur = 2 * time.Millisecond
	fn := RealAdapter(NewPoisson(200, 1e-3, 13), dur)
	got := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				got[w] = append(got[w], fn(w))
			}
		}(w)
	}
	wg.Wait()
	ref := NewPoisson(200, 1e-3, 13)
	for w := 0; w < workers; w++ {
		for i := 0; i < calls; i++ {
			want := time.Duration(ref.Delay(w, float64(i)*dur.Seconds(), dur.Seconds()) * float64(time.Second))
			if got[w][i] != want {
				t.Fatalf("worker %d call %d: delay %v, want %v", w, i, got[w][i], want)
			}
		}
	}
}
