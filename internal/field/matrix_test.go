package field

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func mustMatrix(t *testing.T, rows, cols int, vals ...uint64) *Matrix {
	t.Helper()
	m, err := NewMatrix(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, FromUint64(vals[i*cols+j]))
		}
	}
	return m
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, 3); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := NewMatrix(3, -1); err == nil {
		t.Error("negative cols should fail")
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{FromUint64(1), FromUint64(2), FromUint64(3)}
	w := Vector{FromUint64(4), FromUint64(5), FromUint64(6)}
	sum, err := v.Add(w)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(Vector{FromUint64(5), FromUint64(7), FromUint64(9)}) {
		t.Errorf("Add = %v", sum)
	}
	dot, err := v.Dot(w)
	if err != nil {
		t.Fatal(err)
	}
	if !dot.Equal(FromUint64(32)) {
		t.Errorf("Dot = %v, want 32", dot)
	}
	if _, err := v.Dot(Vector{One()}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := v.Add(Vector{One()}); err == nil {
		t.Error("length mismatch should fail")
	}
	clone := v.Clone()
	clone[0] = Zero()
	if v[0].IsZero() {
		t.Error("Clone should be independent")
	}
	if v.Equal(w) {
		t.Error("distinct vectors reported equal")
	}
	if len(v.String()) == 0 {
		t.Error("String empty")
	}
}

func TestVectorFromBytes(t *testing.T) {
	v := VectorFromBytes([][]byte{{0x01}, {0x02, 0x00}})
	if !v[0].Equal(FromUint64(1)) || !v[1].Equal(FromUint64(512)) {
		t.Errorf("VectorFromBytes = %v", v)
	}
}

func TestIdentityAndMultiply(t *testing.T) {
	id := mustMatrix(t, 3, 3, 1, 0, 0, 0, 1, 0, 0, 0, 1)
	m := mustMatrix(t, 3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 10)
	prod, err := id.MulMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(m) {
		t.Error("I*M != M")
	}
	v := Vector{FromUint64(1), FromUint64(0), FromUint64(2)}
	mv, err := m.MulVector(v)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{FromUint64(7), FromUint64(16), FromUint64(27)}
	if !mv.Equal(want) {
		t.Errorf("MulVector = %v, want %v", mv, want)
	}
	if _, err := m.MulVector(Vector{One()}); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, err := m.MulMatrix(mustMatrix(t, 2, 2, 1, 2, 3, 4)); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestSubmatrix(t *testing.T) {
	c := mustMatrix(t, 2, 5, 1, 0, 1, 2, 3, 0, 1, 4, 5, 6)
	sub, err := c.Submatrix(0, 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Equal(mustMatrix(t, 2, 3, 1, 2, 3, 4, 5, 6)) {
		t.Error("Submatrix did not recover R block")
	}
	if _, err := c.Submatrix(0, 3, 0, 1); err == nil {
		t.Error("out-of-bounds submatrix should fail")
	}
}

func TestSolveUniqueSystem(t *testing.T) {
	// 2x + 3y = 8, x + 4y = 9  -> x = 1, y = 2
	a := mustMatrix(t, 2, 2, 2, 3, 1, 4)
	b := Vector{FromUint64(8), FromUint64(9)}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(Vector{FromUint64(1), FromUint64(2)}) {
		t.Errorf("Solve = %v", x)
	}
}

func TestSolveNeedsPivotSwap(t *testing.T) {
	// First pivot is zero, forcing a row swap.
	a := mustMatrix(t, 2, 2, 0, 1, 1, 0)
	b := Vector{FromUint64(5), FromUint64(7)}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(Vector{FromUint64(7), FromUint64(5)}) {
		t.Errorf("Solve = %v", x)
	}
}

func TestSolveInconsistent(t *testing.T) {
	// x + y = 1, x + y = 2 has no solution.
	a := mustMatrix(t, 2, 2, 1, 1, 1, 1)
	b := Vector{FromUint64(1), FromUint64(2)}
	if _, err := Solve(a, b); !errors.Is(err, ErrInconsistentSystem) {
		t.Errorf("want ErrInconsistentSystem, got %v", err)
	}
}

func TestSolveUnderdetermined(t *testing.T) {
	// One equation, two unknowns.
	a := mustMatrix(t, 1, 2, 1, 1)
	b := Vector{FromUint64(1)}
	if _, err := Solve(a, b); !errors.Is(err, ErrUnderdetermined) {
		t.Errorf("want ErrUnderdetermined, got %v", err)
	}
}

func TestSolveOverdeterminedConsistent(t *testing.T) {
	// Three consistent equations in two unknowns.
	a := mustMatrix(t, 3, 2, 1, 0, 0, 1, 1, 1)
	b := Vector{FromUint64(3), FromUint64(4), FromUint64(7)}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(Vector{FromUint64(3), FromUint64(4)}) {
		t.Errorf("Solve = %v", x)
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	a := mustMatrix(t, 2, 2, 1, 0, 0, 1)
	if _, err := Solve(a, Vector{One()}); err == nil {
		t.Error("mismatched rhs length should fail")
	}
}

func TestRandomMatrixNonZero(t *testing.T) {
	m, err := NewMatrix(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FillRandomNonZero(rand.Reader, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j).IsZero() {
				t.Error("RandomMatrix produced a zero entry")
			}
		}
	}
}

// Property: for random systems built as C·x = b with known x, the in-place
// solve recovers exactly x. This is the exact shape of the hint-matrix
// recovery in the paper: C = [I, R], b = B, x the optional attribute hashes;
// the β trailing entries are known, so the γ leading ones are solved from
// [I_γ | rhs] with rhs = B − R·x_known, as Matcher.recover builds it.
func TestSolveRecoversKnownSolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		gamma := 1 + rng.Intn(4)
		beta := rng.Intn(4)
		n := gamma + beta

		// Build C = [I, R] with random non-zero R entries.
		c, err := NewMatrix(gamma, n)
		if err != nil {
			return false
		}
		for i := 0; i < gamma; i++ {
			c.Set(i, i, One())
			for j := gamma; j < n; j++ {
				c.Set(i, j, FromUint64(uint64(1+rng.Intn(1<<30))))
			}
		}

		// Random "hash" vector x of length n.
		x := make(Vector, n)
		for i := range x {
			x[i] = FromBig(new(big.Int).Rand(rng, Modulus()))
		}
		b, err := c.MulVector(x)
		if err != nil {
			return false
		}

		var aug Matrix
		if err := aug.Reshape(gamma, gamma+1); err != nil {
			return false
		}
		for i := 0; i < gamma; i++ {
			rhs := b[i]
			for j := gamma; j < n; j++ {
				rhs = rhs.Sub(c.At(i, j).Mul(x[j]))
			}
			for j := 0; j < gamma; j++ {
				aug.Set(i, j, c.At(i, j))
			}
			aug.Set(i, gamma, rhs)
		}
		if err := SolveAugmented(&aug); err != nil {
			return false
		}
		for i := 0; i < gamma; i++ {
			if !aug.At(i, gamma).Equal(x[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReshapeReusesStorage(t *testing.T) {
	var m Matrix
	if err := m.Reshape(3, 4); err != nil {
		t.Fatal(err)
	}
	m.Set(2, 3, One())
	if n := testing.AllocsPerRun(10, func() {
		if err := m.Reshape(3, 2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Reshape within capacity: %v allocs, want 0", n)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if !m.At(i, j).IsZero() {
				t.Fatalf("entry (%d,%d) survived the reshape", i, j)
			}
		}
	}
	if err := m.Reshape(0, 1); err == nil {
		t.Error("an empty shape should fail")
	}
}
