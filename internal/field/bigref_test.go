package field

import "math/big"

// math/big is the package's test oracle: these helpers convert between
// Element and big.Int so every operation can be checked against big.Int
// arithmetic modulo q.

// Modulus returns q = 2^256 + 297 as a big.Int.
func Modulus() *big.Int {
	q := new(big.Int).Lsh(big.NewInt(1), 256)
	return q.Add(q, big.NewInt(q0))
}

// FromBig reduces an arbitrary integer into the field.
func FromBig(x *big.Int) Element {
	var b [ElementSize]byte
	new(big.Int).Mod(x, Modulus()).FillBytes(b[:])
	e, err := ElementFromCanonicalBytes(b[:])
	if err != nil {
		panic(err)
	}
	return e
}

// Big returns the element's canonical representative in [0, q).
func (e Element) Big() *big.Int { return new(big.Int).SetBytes(e.Bytes()) }
