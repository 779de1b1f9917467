package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func shiftedSphere(c []float64) Objective {
	return func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - c[i]
			s += d * d
		}
		return s
	}
}

func rosenbrock(x []float64) float64 {
	a := 1 - x[0]
	b := x[1] - x[0]*x[0]
	return a*a + 100*b*b
}

func TestNelderMeadSphere(t *testing.T) {
	res := NelderMead(sphere, []float64{3, -2, 1}, NelderMeadOptions{})
	if res.F > 1e-8 {
		t.Fatalf("NelderMead sphere f = %v, want ~0 (x=%v)", res.F, res.X)
	}
}

func TestNelderMeadShifted(t *testing.T) {
	c := []float64{1.5, -0.5}
	res := NelderMead(shiftedSphere(c), []float64{0, 0}, NelderMeadOptions{})
	for i := range c {
		if math.Abs(res.X[i]-c[i]) > 1e-4 {
			t.Fatalf("minimizer %v, want %v", res.X, c)
		}
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	res := NelderMead(rosenbrock, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000})
	if math.Abs(res.X[0]-1) > 1e-2 || math.Abs(res.X[1]-1) > 1e-2 {
		t.Fatalf("Rosenbrock minimizer %v, want (1,1), f=%v", res.X, res.F)
	}
}

func TestNelderMeadEmpty(t *testing.T) {
	res := NelderMead(func(x []float64) float64 { return 7 }, nil, NelderMeadOptions{})
	if res.F != 7 || res.Evals != 1 {
		t.Fatalf("empty-dim NelderMead = %+v", res)
	}
}

func TestNelderMeadHandlesNaN(t *testing.T) {
	// Objective returning NaN outside a region must not poison the search.
	obj := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res := NelderMead(obj, []float64{5}, NelderMeadOptions{})
	if math.Abs(res.X[0]-2) > 1e-3 {
		t.Fatalf("minimizer %v, want 2", res.X)
	}
}

func TestNelderMeadNeverWorseThanStart(t *testing.T) {
	f := func(seedA, seedB int8) bool {
		x0 := []float64{float64(seedA) / 10, float64(seedB) / 10}
		res := NelderMead(rosenbrock, x0, NelderMeadOptions{MaxIter: 50})
		return res.F <= rosenbrock(x0)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sphereBounded aborts the coordinate loop once the partial sum exceeds
// bound, exercising the early-abort contract.
func sphereBounded(x []float64, bound float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
		if s > bound {
			return s
		}
	}
	return s
}

func TestNelderMeadBoundedMatchesUnbounded(t *testing.T) {
	// An objective that honors the bound must walk the exact same simplex
	// trajectory as the plain objective: same minimizer, value, eval and
	// iteration counts.
	starts := [][]float64{{3, -2, 1}, {0.1, 0.1}, {-5, 4, 0.5, 2}}
	for _, x0 := range starts {
		plain := NelderMead(sphere, x0, NelderMeadOptions{})
		bounded := NelderMeadBounded(sphereBounded, x0, NelderMeadOptions{})
		if plain.F != bounded.F || plain.Evals != bounded.Evals || plain.Iters != bounded.Iters {
			t.Fatalf("bounded run diverged from unbounded: %+v vs %+v (x0=%v)", bounded, plain, x0)
		}
		for i := range plain.X {
			if plain.X[i] != bounded.X[i] {
				t.Fatalf("bounded minimizer %v != unbounded %v (x0=%v)", bounded.X, plain.X, x0)
			}
		}
	}
}

func TestNelderMeadWorkspaceReuse(t *testing.T) {
	var ws NMWorkspace
	opts := NelderMeadOptions{Workspace: &ws}
	a := NelderMeadBounded(sphereBounded, []float64{3, -2, 1}, opts)
	if a.F > 1e-8 {
		t.Fatalf("workspace run 1 f = %v", a.F)
	}
	got := append([]float64(nil), a.X...) // Result.X aliases the workspace
	// Second run with the same workspace must match a fresh run exactly.
	b := NelderMeadBounded(sphereBounded, []float64{3, -2, 1}, opts)
	fresh := NelderMeadBounded(sphereBounded, []float64{3, -2, 1}, NelderMeadOptions{})
	if b.F != fresh.F || b.Evals != fresh.Evals || b.Iters != fresh.Iters {
		t.Fatalf("workspace reuse changed the search: %+v vs %+v", b, fresh)
	}
	for i := range got {
		if got[i] != b.X[i] {
			t.Fatalf("workspace runs disagree: %v vs %v", got, b.X)
		}
	}
	// Dimension change reallocates transparently.
	c := NelderMeadBounded(sphereBounded, []float64{2, 2}, opts)
	if c.F > 1e-8 || len(c.X) != 2 {
		t.Fatalf("workspace dim change: %+v", c)
	}
}

func TestNelderMeadBoundedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var ws NMWorkspace
	opts := NelderMeadOptions{Workspace: &ws, MaxIter: 60}
	x0 := [3]float64{3, -2, 1}
	NelderMeadBounded(sphereBounded, x0[:], opts) // warm the workspace
	allocs := testing.AllocsPerRun(50, func() {
		NelderMeadBounded(sphereBounded, x0[:], opts)
	})
	if allocs != 0 {
		t.Fatalf("NelderMeadBounded with workspace allocates %v per run, want 0", allocs)
	}
}

func TestGoldenSection(t *testing.T) {
	x, fx := GoldenSection(func(v float64) float64 { return (v - 0.3) * (v - 0.3) }, 0, 1, 1e-9)
	if math.Abs(x-0.3) > 1e-6 || fx > 1e-10 {
		t.Fatalf("GoldenSection = (%v, %v)", x, fx)
	}
}

func TestGoldenSectionBoundaryMinimum(t *testing.T) {
	x, _ := GoldenSection(func(v float64) float64 { return v }, 2, 5, 1e-9)
	if math.Abs(x-2) > 1e-6 {
		t.Fatalf("boundary minimum x = %v, want 2", x)
	}
}
