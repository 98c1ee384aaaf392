package bo

import "testing"

// TestSuggestWorkersParity asserts the acquisition optimization is
// bit-identical for any worker count: multistart draws every start
// serially from the engine RNG and reduces the argmin in run order, so
// scheduling cannot change the suggestion.
func TestSuggestWorkersParity(t *testing.T) {
	run := func(workers int) [][]float64 {
		e := New(2, Config{Seed: 9, Workers: workers})
		seedEngine(e, 8, 9)
		var xs [][]float64
		for i := 0; i < 3; i++ {
			x, err := e.Suggest()
			if err != nil {
				t.Fatal(err)
			}
			e.Tell(x, quadratic(x))
			xs = append(xs, x)
		}
		return xs
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range serial {
			for j := range serial[i] {
				if got[i][j] != serial[i][j] {
					t.Errorf("workers=%d: suggestion %d = %v, serial %v", w, i, got[i], serial[i])
				}
			}
		}
	}
}

// TestWorkersPropagatesToGP asserts the engine forwards its worker
// budget to the GP hyperparameter optimizer.
func TestWorkersPropagatesToGP(t *testing.T) {
	e := New(2, Config{Workers: 4})
	if w := e.gpConfig().Workers; w != 4 {
		t.Errorf("GP Workers = %d, want 4", w)
	}
}
