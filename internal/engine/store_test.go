package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
)

// keptLU builds a minimal LU Kept of order n (2*n*n*8 bytes).
func keptLU(n int) Kept {
	return Kept{LU: &core.Factorization{L: mat.New(n, n), U: mat.New(n, n)}}
}

func TestStoreLRUEvictsLeastRecentlyUsed(t *testing.T) {
	s := NewStore(StoreOptions{Keep: 2})
	a := s.Put("f", keptLU(4))
	b := s.Put("f", keptLU(4))
	if _, ok := s.Get(a); !ok { // refresh a: b is now least recently used
		t.Fatalf("%s missing right after store", a)
	}
	c := s.Put("f", keptLU(4)) // evicts b, not a
	if _, ok := s.Get(a); !ok {
		t.Fatalf("recently-used %s evicted", a)
	}
	if _, ok := s.Get(b); ok {
		t.Fatalf("least-recently-used %s still resident", b)
	}
	if _, ok := s.Get(c); !ok {
		t.Fatalf("just-stored %s missing", c)
	}
	if st := s.Stats(); st.Evictions != 1 || st.Count != 2 {
		t.Fatalf("stats %+v, want 1 eviction / 2 resident", st)
	}
}

func TestStoreMemBudgetNeverEvictsNewest(t *testing.T) {
	// A 16x16 LU costs 2*16*16*8 = 4096 bytes; budget one and a half.
	s := NewStore(StoreOptions{Keep: 64, MemBudget: 6000})
	a := s.Put("f", keptLU(16))
	b := s.Put("f", keptLU(16)) // pushes bytes to 8192 > 6000: evicts a
	if st := s.Stats(); st.Count != 1 || st.Bytes != 4096 {
		t.Fatalf("after budget eviction: %d entries / %d bytes, want 1 / 4096", st.Count, st.Bytes)
	}
	if _, ok := s.Get(a); ok {
		t.Fatalf("%s survived the byte budget", a)
	}
	if _, ok := s.Get(b); !ok {
		t.Fatalf("just-stored %s was evicted", b)
	}
	// One entry alone over budget still sticks.
	big := s.Put("f", keptLU(64)) // 65536 bytes >> 6000
	if _, ok := s.Get(big); !ok {
		t.Fatalf("over-budget entry %s not retained", big)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d entries, want only the over-budget one", s.Len())
	}
}

func TestStorePutAsImportsAndOverwrites(t *testing.T) {
	s := NewStore(StoreOptions{Keep: 8})
	s.PutAs("f-remote-1", keptLU(4))
	if _, ok := s.Get("f-remote-1"); !ok {
		t.Fatal("imported entry missing")
	}
	// Overwriting the same id replaces bytes, not duplicates.
	s.PutAs("f-remote-1", keptLU(8))
	if st := s.Stats(); st.Count != 1 || st.Bytes != 2*8*8*8 || st.Imports != 2 {
		t.Fatalf("after overwrite: %+v", st)
	}
	ids := s.IDs()
	if len(ids) != 1 || ids[0] != "f-remote-1" {
		t.Fatalf("IDs %v", ids)
	}
}

func TestStoreGeneratedIDsAndListing(t *testing.T) {
	s := NewStore(StoreOptions{Keep: 16})
	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, s.Put("f", keptLU(2)))
	}
	c := s.Put("c", Kept{Chol: &core.CholeskyFactorization{L: mat.New(2, 2)}})
	want = append(want, c)
	if want[0] != "f-1" || c != "c-4" {
		t.Fatalf("generated ids %v (one shared counter expected)", want)
	}
	ids := s.IDs()
	if len(ids) != 4 {
		t.Fatalf("IDs %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
	k, ok := s.Get(c)
	if !ok || k.Chol == nil || k.LU != nil || k.N() != 2 {
		t.Fatalf("cholesky entry round-trip: %+v ok=%v", k, ok)
	}
}

func TestStoreInvalidKeptPanics(t *testing.T) {
	s := NewStore(StoreOptions{Keep: 1})
	for name, fn := range map[string]func(){
		"both nil":  func() { s.Put("f", Kept{}) },
		"both set":  func() { s.Put("f", Kept{LU: keptLU(2).LU, Chol: &core.CholeskyFactorization{L: mat.New(2, 2)}}) },
		"empty id":  func() { s.PutAs("", keptLU(2)) },
		"putas nil": func() { s.PutAs("x", Kept{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(StoreOptions{Keep: 8, MemBudget: 1 << 20})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				id := s.Put("f", keptLU(4))
				s.PutAs(fmt.Sprintf("x-%d-%d", g, i), keptLU(4))
				s.Get(id)
				s.IDs()
				s.Stats()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s.Len() > 8 {
		t.Fatalf("keep bound violated: %d resident", s.Len())
	}
}

// TestStoreChargesSolvedCholeskyTranspose: the first solve of a
// Cholesky factor materializes Lᵀ and keeps it as long as the factor,
// so a resident, solved entry holds two n x n matrices and SizeBytes
// charges both.
func TestStoreChargesSolvedCholeskyTranspose(t *testing.T) {
	const n = 48
	f, err := core.FactorCholesky(core.RandomSPD(n, 5), core.Options{Block: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveMany(mat.New(n, 1), core.Options{Block: 16}); err != nil {
		t.Fatal(err)
	}
	if got, want := KeptOf(f).SizeBytes(), int64(2*8*n*n); got != want {
		t.Fatalf("SizeBytes = %d for a solved n=%d Cholesky factor, want %d (L and Lᵀ)", got, n, want)
	}
}
