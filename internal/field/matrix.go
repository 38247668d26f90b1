package field

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// Vector is a column vector of field elements.
type Vector []Element

// NewVector allocates a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// VectorFromBytes lifts a slice of byte strings (e.g. SHA-256 digests) into a
// vector of field elements.
func VectorFromBytes(digests [][]byte) Vector {
	v := make(Vector, len(digests))
	for i, d := range digests {
		v[i] = FromBytes(d)
	}
	return v
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports element-wise equality.
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if !v[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Add returns v + o.
func (v Vector) Add(o Vector) (Vector, error) {
	if len(v) != len(o) {
		return nil, fmt.Errorf("field: vector length mismatch %d vs %d", len(v), len(o))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i].Add(o[i])
	}
	return out, nil
}

// Dot returns the inner product of two vectors.
func (v Vector) Dot(o Vector) (Element, error) {
	if len(v) != len(o) {
		return Element{}, fmt.Errorf("field: vector length mismatch %d vs %d", len(v), len(o))
	}
	acc := Zero()
	for i := range v {
		acc = acc.Add(v[i].Mul(o[i]))
	}
	return acc, nil
}

// String renders the vector for debugging.
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, e := range v {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Matrix is a dense rows×cols matrix of field elements.
type Matrix struct {
	rows, cols int
	data       []Element // row-major
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("field: invalid matrix shape %dx%d", rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]Element, rows*cols)}, nil
}

// FillRandomNonZero sets columns [c0, cols) of every row, row by row, to
// uniformly random non-zero elements drawn as RandomNonZero draws them, as
// required for the R block of the constraint matrix C = [I, R]. The whole
// fill shares one read buffer.
func (m *Matrix) FillRandomNonZero(r io.Reader, c0 int) error {
	var buf [ElementSize]byte
	for i := 0; i < m.rows; i++ {
		for j := c0; j < m.cols; j++ {
			e, err := randomNonZeroInto(r, buf[:])
			if err != nil {
				return err
			}
			m.Set(i, j, e)
		}
	}
	return nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) Element { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, e Element) { m.data[i*m.cols+j] = e }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, data: make([]Element, len(m.data))}
	copy(out.data, m.data)
	return out
}

// Reshape makes m a zero rows×cols matrix, reusing its storage when it has
// room, so one buffer can serve a run of systems of varying width.
func (m *Matrix) Reshape(rows, cols int) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("field: invalid matrix shape %dx%d", rows, cols)
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]Element, n)
	}
	m.rows, m.cols, m.data = rows, cols, m.data[:n]
	clear(m.data)
	return nil
}

// Equal reports element-wise equality of two matrices.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if !m.data[i].Equal(o.data[i]) {
			return false
		}
	}
	return true
}

// Submatrix returns the block [r0, r1) × [c0, c1).
func (m *Matrix) Submatrix(r0, r1, c0, c1 int) (*Matrix, error) {
	if r0 < 0 || c0 < 0 || r1 > m.rows || c1 > m.cols || r0 >= r1 || c0 >= c1 {
		return nil, fmt.Errorf("field: invalid submatrix bounds [%d,%d)x[%d,%d) of %dx%d", r0, r1, c0, c1, m.rows, m.cols)
	}
	out, err := NewMatrix(r1-r0, c1-c0)
	if err != nil {
		return nil, err
	}
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			out.Set(i-r0, j-c0, m.At(i, j))
		}
	}
	return out, nil
}

// MulVector returns the matrix-vector product m·v.
func (m *Matrix) MulVector(v Vector) (Vector, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("field: matrix %dx%d cannot multiply vector of length %d", m.rows, m.cols, len(v))
	}
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		acc := Zero()
		for j := 0; j < m.cols; j++ {
			acc = acc.Add(m.At(i, j).Mul(v[j]))
		}
		out[i] = acc
	}
	return out, nil
}

// MulMatrix returns the matrix product m·o.
func (m *Matrix) MulMatrix(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("field: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out, err := NewMatrix(m.rows, o.cols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			mik := m.At(i, k)
			if mik.IsZero() {
				continue
			}
			for j := 0; j < o.cols; j++ {
				out.Set(i, j, out.At(i, j).Add(mik.Mul(o.At(k, j))))
			}
		}
	}
	return out, nil
}

// String renders the matrix shape and contents for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			b.WriteString(m.At(i, j).String())
		}
	}
	b.WriteString("]")
	return b.String()
}

// Errors returned by the linear solver.
var (
	// ErrInconsistentSystem indicates the system A·x = b has no solution.
	ErrInconsistentSystem = errors.New("field: linear system is inconsistent")
	// ErrUnderdetermined indicates the system has more than one solution.
	ErrUnderdetermined = errors.New("field: linear system is underdetermined")
)

// Solve finds the unique x with A·x = b by Gaussian elimination over GF(q).
// It returns ErrUnderdetermined when the solution is not unique and
// ErrInconsistentSystem when no solution exists. A may be rectangular
// (more equations than unknowns is fine as long as they are consistent).
// It copies [A | b] into one augmented matrix and reduces that with
// SolveAugmented.
func Solve(a *Matrix, b Vector) (Vector, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("field: %d equations but %d right-hand sides", a.rows, len(b))
	}
	aug := &Matrix{rows: a.rows, cols: a.cols + 1, data: make([]Element, a.rows*(a.cols+1))}
	for i := 0; i < a.rows; i++ {
		copy(aug.data[i*aug.cols:], a.data[i*a.cols:(i+1)*a.cols])
		aug.Set(i, a.cols, b[i])
	}
	if err := SolveAugmented(aug); err != nil {
		return nil, err
	}
	x := make(Vector, a.cols)
	for j := range x {
		x[j] = aug.At(j, a.cols)
	}
	return x, nil
}

// SolveAugmented solves A·x = b for aug = [A | b] by Gauss–Jordan elimination
// in place, with one inversion per pivot and no allocation. On success
// x_j = aug.At(j, aug.Cols()-1) for every unknown j < aug.Cols()-1. Its errors
// are Solve's.
func SolveAugmented(aug *Matrix) error {
	rows, n := aug.rows, aug.cols-1
	row := 0
	for col := 0; col < n && row < rows; col++ {
		// Find a pivot in this column at or below `row`.
		pivot := row
		for pivot < rows && aug.At(pivot, col).IsZero() {
			pivot++
		}
		if pivot == rows {
			continue
		}
		pr := aug.data[row*aug.cols : (row+1)*aug.cols]
		if pivot != row {
			swapWith := aug.data[pivot*aug.cols : (pivot+1)*aug.cols]
			for j := col; j <= n; j++ {
				pr[j], swapWith[j] = swapWith[j], pr[j]
			}
		}
		// Normalize the pivot row.
		inv, err := pr[col].Inv()
		if err != nil {
			return err
		}
		for j := col; j <= n; j++ {
			pr[j] = pr[j].Mul(inv)
		}
		// Eliminate the column from every other row.
		for r := 0; r < rows; r++ {
			if r == row {
				continue
			}
			rr := aug.data[r*aug.cols : (r+1)*aug.cols]
			factor := rr[col]
			if factor.IsZero() {
				continue
			}
			for j := col; j <= n; j++ {
				rr[j] = rr[j].Sub(factor.Mul(pr[j]))
			}
		}
		row++
	}
	// Any remaining non-zero right-hand side with an all-zero row means the
	// system is inconsistent.
	for r := row; r < rows; r++ {
		if !aug.At(r, n).IsZero() {
			return ErrInconsistentSystem
		}
	}
	// With a pivot in every column, column j's pivot sits in row j.
	if row < n {
		return ErrUnderdetermined
	}
	return nil
}
