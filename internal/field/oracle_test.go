package field

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
)

// edgeValues are the limb-boundary and modulus-adjacent integers every
// operation is checked on, pairwise: 0, 1, q−1 = 2^256 + 296, q−2, 2^256 and
// its neighbours, 297, and 2^(64k)−1 and 2^(64k) for k = 1..4.
func edgeValues() []*big.Int {
	q := Modulus()
	one := big.NewInt(1)
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(q0 - 1),
		big.NewInt(q0),
		new(big.Int).Sub(q, one),
		new(big.Int).Sub(q, big.NewInt(2)),
		new(big.Int).Add(new(big.Int).Lsh(one, 256), one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), big.NewInt(q0)),
	}
	for k := uint(1); k <= 4; k++ {
		p := new(big.Int).Lsh(one, 64*k)
		vals = append(vals, new(big.Int).Sub(p, one), p)
	}
	return vals
}

// randomValues draws n integers in [0, q) from a seeded source.
func randomValues(seed int64, n int) []*big.Int {
	rng := mrand.New(mrand.NewSource(seed))
	q := Modulus()
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(rng, q)
	}
	return out
}

// checkOps compares every element operation on x and y with big.Int
// arithmetic modulo q.
func checkOps(t *testing.T, x, y *big.Int) {
	t.Helper()
	q := Modulus()
	a, b := FromBig(x), FromBig(y)
	x, y = a.Big(), b.Big() // reduced
	mod := func(v *big.Int) *big.Int { return v.Mod(v, q) }
	check := func(op string, got Element, want *big.Int) {
		t.Helper()
		if got.Big().Cmp(want) != 0 {
			t.Fatalf("%s(%#x, %#x) = %#x, want %#x", op, x, y, got.Big(), want)
		}
		if _, err := ElementFromCanonicalBytes(got.Bytes()); err != nil {
			t.Fatalf("%s(%#x, %#x) is not canonical: %v", op, x, y, err)
		}
	}
	check("Add", a.Add(b), mod(new(big.Int).Add(x, y)))
	check("Sub", a.Sub(b), mod(new(big.Int).Sub(x, y)))
	check("Mul", a.Mul(b), mod(new(big.Int).Mul(x, y)))
	check("Neg", a.Neg(), mod(new(big.Int).Neg(x)))
	if a.Equal(b) != (x.Cmp(y) == 0) {
		t.Fatalf("Equal(%#x, %#x) = %v", x, y, a.Equal(b))
	}
	if x.Sign() == 0 {
		if _, err := a.Inv(); err == nil {
			t.Fatal("Inv(0) succeeded")
		}
	} else {
		inv, err := a.Inv()
		if err != nil {
			t.Fatalf("Inv(%#x): %v", x, err)
		}
		check("Inv", inv, new(big.Int).ModInverse(x, q))
	}
	d, ok := a.Bytes32()
	if fits := x.BitLen() <= 256; ok != fits {
		t.Fatalf("Bytes32(%#x) ok = %v, want %v", x, ok, fits)
	} else if ok && new(big.Int).SetBytes(d[:]).Cmp(x) != 0 {
		t.Fatalf("Bytes32(%#x) = %x", x, d)
	}
}

func TestOpsMatchBigReference(t *testing.T) {
	edges := edgeValues()
	for _, x := range edges {
		for _, y := range edges {
			checkOps(t, x, y)
		}
	}
	rnd := randomValues(1, 2000)
	for i, x := range rnd {
		checkOps(t, x, rnd[(i+1)%len(rnd)])
		checkOps(t, x, edges[i%len(edges)])
	}
}

func TestFromBytesMatchesBigReference(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	q := Modulus()
	for n := 0; n <= 100; n++ {
		b := make([]byte, n)
		for _, fill := range []func(){
			func() { rng.Read(b) },
			func() {
				for i := range b {
					b[i] = 0xff
				}
			},
		} {
			fill()
			want := new(big.Int).Mod(new(big.Int).SetBytes(b), q)
			if got := FromBytes(b).Big(); got.Cmp(want) != 0 {
				t.Fatalf("FromBytes(%x) = %#x, want %#x", b, got, want)
			}
		}
	}
}

// bigSolve is the reference Gauss–Jordan solver over big.Int modulo q, with
// Solve's error contract.
func bigSolve(a [][]*big.Int, b []*big.Int) ([]*big.Int, error) {
	q := Modulus()
	rows, cols := len(a), len(a[0])
	m := make([][]*big.Int, rows)
	for i := range m {
		m[i] = make([]*big.Int, cols+1)
		for j := 0; j < cols; j++ {
			m[i][j] = new(big.Int).Set(a[i][j])
		}
		m[i][cols] = new(big.Int).Set(b[i])
	}
	row := 0
	for col := 0; col < cols && row < rows; col++ {
		pivot := -1
		for r := row; r < rows; r++ {
			if m[r][col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m[row], m[pivot] = m[pivot], m[row]
		inv := new(big.Int).ModInverse(m[row][col], q)
		for j := range m[row] {
			m[row][j].Mod(m[row][j].Mul(m[row][j], inv), q)
		}
		for r := range m {
			if r == row {
				continue
			}
			f := new(big.Int).Set(m[r][col])
			for j := range m[r] {
				t := new(big.Int).Mul(f, m[row][j])
				m[r][j].Mod(m[r][j].Sub(m[r][j], t), q)
			}
		}
		row++
	}
	for r := row; r < rows; r++ {
		if m[r][cols].Sign() != 0 {
			return nil, ErrInconsistentSystem
		}
	}
	if row < cols {
		return nil, ErrUnderdetermined
	}
	x := make([]*big.Int, cols)
	for j := range x {
		x[j] = m[j][cols]
	}
	return x, nil
}

func TestSolveMatchesBigReference(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	q := Modulus()
	edges := edgeValues()
	pick := func() *big.Int {
		switch rng.Intn(4) {
		case 0:
			return big.NewInt(0)
		case 1:
			return edges[rng.Intn(len(edges))]
		default:
			return new(big.Int).Rand(rng, q)
		}
	}
	kinds := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
		a := make([][]*big.Int, rows)
		m, err := NewMatrix(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			a[i] = make([]*big.Int, cols)
			for j := range a[i] {
				if i > 0 && rng.Intn(6) == 0 {
					a[i][j] = a[i-1][j] // a repeated row makes systems singular
				} else {
					a[i][j] = new(big.Int).Mod(pick(), q)
				}
				m.Set(i, j, FromBig(a[i][j]))
			}
		}
		b := make([]*big.Int, rows)
		v := make(Vector, rows)
		for i := range b {
			b[i] = new(big.Int).Mod(pick(), q)
			v[i] = FromBig(b[i])
		}
		want, wantErr := bigSolve(a, b)
		got, gotErr := Solve(m, v)
		if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: Solve error %v, reference %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			kinds[wantErr.Error()]++
			continue
		}
		kinds["unique"]++
		for j := range want {
			if got[j].Big().Cmp(want[j]) != 0 {
				t.Fatalf("trial %d: x[%d] = %#x, reference %#x", trial, j, got[j].Big(), want[j])
			}
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("trials covered %v; want unique, inconsistent and underdetermined systems", kinds)
	}
}

func FuzzFieldOps(f *testing.F) {
	edges := edgeValues()
	for i, x := range edges {
		var a, b [ElementSize]byte
		x.FillBytes(a[:])
		edges[(i+3)%len(edges)].FillBytes(b[:])
		f.Add(a[:], b[:])
	}
	f.Add([]byte{0xff, 0xff}, bytes.Repeat([]byte{0xff}, ElementSize))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > ElementSize || len(b) > ElementSize {
			t.Skip("inputs are at most one encoded element")
		}
		x, y := new(big.Int).SetBytes(a), new(big.Int).SetBytes(b)
		q := Modulus()
		if got, want := FromBytes(a).Big(), new(big.Int).Mod(x, q); got.Cmp(want) != 0 {
			t.Fatalf("FromBytes(%x) = %#x, want %#x", a, got, want)
		}
		checkOps(t, x, y)
	})
}

// TestRandomMatchesCryptoRandInt pins the random stream: Random and
// FillRandomNonZero must consume a reader exactly as crypto/rand.Int(r, q)
// does, value for value and byte for byte, or seeded corpora would change.
func TestRandomMatchesCryptoRandInt(t *testing.T) {
	const seed, draws = 7, 1200
	ours := mrand.New(mrand.NewSource(seed))
	ref := mrand.New(mrand.NewSource(seed))
	q := Modulus()
	next := func() *big.Int {
		t.Helper()
		v, err := rand.Int(ref, q)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i := 0; i < draws; i++ {
		e, err := Random(ours)
		if err != nil {
			t.Fatal(err)
		}
		if want := next(); e.Big().Cmp(want) != 0 {
			t.Fatalf("draw %d: Random = %#x, crypto/rand.Int = %#x", i, e.Big(), want)
		}
	}
	m, err := NewMatrix(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FillRandomNonZero(ours, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 2; j < m.Cols(); j++ {
			if want := next(); m.At(i, j).Big().Cmp(want) != 0 {
				t.Fatalf("matrix (%d,%d) = %#x, crypto/rand.Int = %#x", i, j, m.At(i, j).Big(), want)
			}
		}
	}
	var tailOurs, tailRef [64]byte
	if _, err := io.ReadFull(ours, tailOurs[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(ref, tailRef[:]); err != nil {
		t.Fatal(err)
	}
	if tailOurs != tailRef {
		t.Fatal("the readers diverged: Random read a different number of bytes than crypto/rand.Int")
	}
}

// TestRandomPropagatesShortRead checks that a reader running dry is reported,
// not retried forever.
func TestRandomPropagatesShortRead(t *testing.T) {
	if _, err := Random(bytes.NewReader(make([]byte, ElementSize-1))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Random on a short reader: %v, want io.ErrUnexpectedEOF", err)
	}
}
