package hierarchical

import (
	"math"
	"math/rand"
	"testing"
)

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *matrix {
	m := newMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// leastSquares returns the minimizer of ||A·x - b||₂.
func leastSquares(a *matrix, b []float64) ([]float64, error) {
	q, err := newQR(a)
	if err != nil {
		return nil, err
	}
	return q.solve(b)
}

func TestQRSolveSquare(t *testing.T) {
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	x, err := leastSquares(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=3, x+3y=5 → x=4/5, y=7/5
	if math.Abs(x[0]-0.8) > 1e-10 || math.Abs(x[1]-1.4) > 1e-10 {
		t.Fatalf("solve = %v", x)
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = a + b·t to noise-free data: exact recovery.
	a := fromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	b := []float64{1, 3, 5, 7} // a=1, b=2
	x, err := leastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("least squares = %v, want [1 2]", x)
	}
}

func TestQRSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := leastSquares(a, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix should fail")
	}
}

func TestQRRequiresTallMatrix(t *testing.T) {
	if _, err := newQR(newMatrix(2, 3)); err == nil {
		t.Fatal("QR of wide matrix should fail")
	}
}

func TestQRSolveWrongRHS(t *testing.T) {
	a := newMatrix(3, 3)
	for i := 0; i < 3; i++ {
		a.set(i, i, 1)
	}
	q, err := newQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.solve([]float64{1, 2}); err == nil {
		t.Fatal("wrong rhs length should fail")
	}
}

func TestQRRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		a := newMatrix(n, n)
		for i := range a.data {
			a.data[i] = rng.NormFloat64()
		}
		// Make it diagonally dominant (well conditioned).
		for i := 0; i < n; i++ {
			a.set(i, i, a.at(i, i)+float64(n)*2)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, _ := mulVec(a, want)
		x, err := leastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: solve = %v, want %v", trial, x, want)
			}
		}
	}
}
