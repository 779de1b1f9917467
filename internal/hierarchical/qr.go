package hierarchical

import (
	"errors"
	"fmt"
	"math"
)

// matrix is a dense row-major matrix, the summing matrix S of the Combine
// reconciliation.
type matrix struct {
	rows, cols int
	data       []float64 // len rows*cols, row major
}

// newMatrix returns a zero matrix of the given shape.
func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// at returns element (i, j).
func (m *matrix) at(i, j int) float64 { return m.data[i*m.cols+j] }

// set assigns element (i, j).
func (m *matrix) set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// errSingular is returned when a factorization meets a (numerically)
// singular matrix.
var errSingular = errors.New("matrix is singular to working precision")

// qrFactor holds a Householder QR factorization of an m×n matrix with
// m >= n.
type qrFactor struct {
	qr   *matrix   // packed Householder vectors + R
	rd   []float64 // diagonal of R
	m, n int
}

// newQR computes the Householder QR factorization of a (copied, not
// modified). Requires a.rows >= a.cols.
func newQR(a *matrix) (*qrFactor, error) {
	if a.rows < a.cols {
		return nil, fmt.Errorf("QR requires rows >= cols, got %dx%d", a.rows, a.cols)
	}
	qr := newMatrix(a.rows, a.cols)
	copy(qr.data, a.data)
	m, n := qr.rows, qr.cols
	rd := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of column k below the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.at(i, k))
		}
		if nrm != 0 {
			if qr.at(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr.set(i, k, qr.at(i, k)/nrm)
			}
			qr.set(k, k, qr.at(k, k)+1)
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += qr.at(i, k) * qr.at(i, j)
				}
				s = -s / qr.at(k, k)
				for i := k; i < m; i++ {
					qr.set(i, j, qr.at(i, j)+s*qr.at(i, k))
				}
			}
		}
		rd[k] = -nrm
	}
	return &qrFactor{qr: qr, rd: rd, m: m, n: n}, nil
}

// solve finds the least-squares solution x of A·x = b for the factorized A.
// A is singular when some |R_kk| is at most 1e-12 of the largest: relative,
// so that scaling A's rows (CombineWLS divides them by σ̂) cannot make a
// well-conditioned matrix look singular or a singular one look regular.
func (q *qrFactor) solve(b []float64) ([]float64, error) {
	if len(b) != q.m {
		return nil, fmt.Errorf("QR solve: rhs length %d, want %d", len(b), q.m)
	}
	var maxD float64
	for _, d := range q.rd {
		maxD = math.Max(maxD, math.Abs(d))
	}
	for _, d := range q.rd {
		if math.Abs(d) <= 1e-12*maxD {
			return nil, errSingular
		}
	}
	y := make([]float64, q.m)
	copy(y, b)
	// Apply Householder transforms to b.
	for k := 0; k < q.n; k++ {
		var s float64
		for i := k; i < q.m; i++ {
			s += q.qr.at(i, k) * y[i]
		}
		if q.qr.at(k, k) == 0 {
			continue
		}
		s = -s / q.qr.at(k, k)
		for i := k; i < q.m; i++ {
			y[i] += s * q.qr.at(i, k)
		}
	}
	// Back substitution with R.
	x := make([]float64, q.n)
	for k := q.n - 1; k >= 0; k-- {
		acc := y[k]
		for j := k + 1; j < q.n; j++ {
			acc -= q.qr.at(k, j) * x[j]
		}
		x[k] = acc / q.rd[k]
	}
	return x, nil
}
