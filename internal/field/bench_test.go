package field

import (
	"math/big"
	"testing"
)

//nolint:gochecknoglobals // sinks keep the compiler from removing measured calls.
var (
	sinkElement Element
	sinkBool    bool
	sinkBig     *big.Int
)

func TestElementOpsDoNotAllocate(t *testing.T) {
	rnd := randomValues(4, 2)
	a, b := FromBig(rnd[0]), FromBig(rnd[1])
	enc := a.Bytes()
	ops := map[string]func(){
		"Add": func() { sinkElement = a.Add(b) },
		"Sub": func() { sinkElement = a.Sub(b) },
		"Mul": func() { sinkElement = a.Mul(b) },
		"Neg": func() { sinkElement = a.Neg() },
		"Inv": func() {
			inv, err := a.Inv()
			if err != nil {
				t.Fatal(err)
			}
			sinkElement = inv
		},
		"Equal": func() { sinkBool = a.Equal(b) },
		"ElementFromCanonicalBytes": func() {
			e, err := ElementFromCanonicalBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			sinkElement = e
		},
	}
	for name, op := range ops {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// The benchmarks below pair each operation with its math/big reference, so
// one `go test -bench .` compares the two.

func benchOperands() (Element, Element, *big.Int, *big.Int) {
	rnd := randomValues(5, 2)
	return FromBig(rnd[0]), FromBig(rnd[1]), rnd[0], rnd[1]
}

func BenchmarkElementMul(b *testing.B) {
	x, y, _, _ := benchOperands()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = x.Mul(y)
	}
	sinkElement = x
}

func BenchmarkBigIntMulMod(b *testing.B) {
	_, _, x, y := benchOperands()
	q := Modulus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = new(big.Int).Mul(x, y)
		x.Mod(x, q)
	}
	sinkBig = x
}

func BenchmarkElementInv(b *testing.B) {
	x, y, _, _ := benchOperands()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inv, err := x.Inv()
		if err != nil {
			b.Fatal(err)
		}
		x = inv.Add(y) // a fresh operand each iteration
	}
	sinkElement = x
}

func BenchmarkBigIntModInverse(b *testing.B) {
	_, _, x, y := benchOperands()
	q := Modulus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = new(big.Int).ModInverse(x, q)
		x.Add(x, y)
		x.Mod(x, q)
	}
	sinkBig = x
}

// solveSystem is a random 4×4 system, the size of a γ = 4 hint solve.
func solveSystem() ([][]*big.Int, []*big.Int, *Matrix, Vector) {
	const n = 4
	rnd := randomValues(6, n*n+n)
	a := make([][]*big.Int, n)
	m, err := NewMatrix(n, n)
	if err != nil {
		panic(err)
	}
	for i := range a {
		a[i] = rnd[i*n : (i+1)*n]
		for j, v := range a[i] {
			m.Set(i, j, FromBig(v))
		}
	}
	rhs := rnd[n*n:]
	v := make(Vector, n)
	for i, x := range rhs {
		v[i] = FromBig(x)
	}
	return a, rhs, m, v
}

func BenchmarkSolve(b *testing.B) {
	_, _, m, v := solveSystem()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, err := Solve(m, v)
		if err != nil {
			b.Fatal(err)
		}
		sinkElement = x[0]
	}
}

func BenchmarkBigIntSolve(b *testing.B) {
	a, rhs, _, _ := solveSystem()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, err := bigSolve(a, rhs)
		if err != nil {
			b.Fatal(err)
		}
		sinkBig = x[0]
	}
}
