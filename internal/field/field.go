// Package field implements arithmetic over the prime field GF(q) used by the
// hint matrix of the Sealed Bottle mechanism.
//
// The paper builds the hint matrix B = C × [h^{α+1}, ..., h^{m_t}]^T from
// 256-bit SHA-256 attribute hashes and later solves the linear system
// [I, R] x = B (Eqs. 9-13) to recover missing hashes. For the recovery to be
// exact the arithmetic must be carried out over a field in which every
// 256-bit hash embeds losslessly; we use GF(q) with q the smallest prime
// larger than 2^256 (q = 2^256 + 297). The paper leaves the arithmetic
// domain unspecified; this choice preserves the unique-solution property the
// paper relies on while keeping all values a fixed 33 bytes on the wire.
//
// # Representation
//
// An Element is a value of five little-endian uint64 limbs, always canonical
// in [0, q): limb 4 is 0 or 1, and when it is 1 the value is below 2^256 +
// 297. Nothing is allocated by Add, Sub, Neg, Mul, Inv, Equal or the decoder.
//
// Reduction uses the shape of q: 2^256 ≡ −297 and 2^512 ≡ 297² (mod q). A
// product P < 2^514 is split as L + H·2^256 with L < 2^256, so P ≡ L − 297·H;
// the high limb of 297·H is folded once more by the same identity, and two
// masked corrections by q bring the result into [0, q).
//
// Inv is T. Pornin's optimised binary GCD ("Optimized Binary GCD for Modular
// Inversion", IACR ePrint 2020/972): rounds of 30 divsteps on 62-bit
// approximations of the two operands, each followed by one signed 2×2 update
// of the full operands and one fused (f·u + g·v)·2^−30 mod q update of the
// Bézout coefficients.
//
// # Timing
//
// The package is variable-time, like math/big. Add, Sub, Neg and Mul have
// no branch on their operands: their corrections by q are masked selects, so
// the participant's own hashes, which recovery multiplies and subtracts, do
// not steer a branch. Inv, Equal, IsZero, the byte codecs and Random branch
// on their values. Inv only ever sees entries derived from the public
// constraint matrix C of a request, so its timing reveals nothing a holder of
// the request does not already have.
package field

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// ElementSize is the canonical encoded size of a field element in bytes.
// q is a 257-bit prime, so 33 bytes are required.
const ElementSize = 33

// q0 is the low limb of q = 2^256 + q0; limbs 1–3 of q are zero and limb 4 is
// one.
const q0 = 297

// qInvNeg is −q⁻¹ mod 2^64, the Montgomery-style constant that clears low
// bits in Inv's fused coefficient update.
const qInvNeg = 0xc5631fe46ae1d4e7

// Element is an immutable element of GF(q). The zero value is the field's
// additive identity and is ready to use.
type Element struct {
	// l holds the canonical value in [0, q), least significant limb first.
	l [5]uint64
}

// Zero returns the additive identity.
func Zero() Element { return Element{} }

// One returns the multiplicative identity.
func One() Element { return FromUint64(1) }

// FromUint64 lifts a machine integer into the field.
func FromUint64(x uint64) Element { return Element{l: [5]uint64{x}} }

// FromInt64 lifts a signed machine integer into the field (negative values
// wrap around the modulus).
func FromInt64(x int64) Element {
	if x < 0 {
		// uint64(-x) is 2^63 for math.MinInt64, which is the right magnitude.
		return FromUint64(uint64(-x)).Neg()
	}
	return FromUint64(uint64(x))
}

// FromBytes interprets b as a big-endian unsigned integer and reduces it into
// the field. It is the standard way to lift a SHA-256 digest into GF(q); a
// 32-byte digest is always already smaller than q, so no information is lost.
func FromBytes(b []byte) Element {
	if len(b) == 0 {
		return Element{}
	}
	n := (len(b)-1)%32 + 1 // leading chunk, so the rest are whole 32-byte words
	acc := load256(b[:n])
	for b = b[n:]; len(b) > 0; b = b[32:] {
		// acc·2^256 + next word; 2^256 < q is itself an element.
		acc = acc.Mul(Element{l: [5]uint64{4: 1}}).Add(load256(b[:32]))
	}
	return acc
}

// load256 reads at most 32 big-endian bytes, a value below 2^256 < q.
func load256(b []byte) Element {
	var w [32]byte
	copy(w[32-len(b):], b)
	return Element{l: [5]uint64{
		binary.BigEndian.Uint64(w[24:]),
		binary.BigEndian.Uint64(w[16:]),
		binary.BigEndian.Uint64(w[8:]),
		binary.BigEndian.Uint64(w[:]),
	}}
}

// Random returns a uniformly random field element read from r
// (crypto/rand.Reader in production code). It consumes r exactly as
// crypto/rand.Int(r, q) does: 33 bytes per draw, the top byte masked to its
// low bit, draws ≥ q rejected. Seeded corpora therefore stay reproducible.
func Random(r io.Reader) (Element, error) {
	var buf [ElementSize]byte
	return randomInto(r, buf[:])
}

// RandomNonZero returns a uniformly random non-zero field element.
func RandomNonZero(r io.Reader) (Element, error) {
	var buf [ElementSize]byte
	return randomNonZeroInto(r, buf[:])
}

// randomInto is Random drawing through the caller's 33-byte buffer, so a
// whole matrix can share one (a buffer handed to an io.Reader escapes).
func randomInto(r io.Reader, buf []byte) (Element, error) {
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return Element{}, fmt.Errorf("field: sampling random element: %w", err)
		}
		buf[0] &= 1
		if e, ok := decode(buf); ok {
			return e, nil
		}
	}
}

func randomNonZeroInto(r io.Reader, buf []byte) (Element, error) {
	for {
		e, err := randomInto(r, buf)
		if err != nil || !e.IsZero() {
			return e, err
		}
	}
}

// Bytes returns the canonical fixed-width (33-byte) big-endian encoding.
func (e Element) Bytes() []byte { return e.AppendBytes(make([]byte, 0, ElementSize)) }

// AppendBytes appends the 33-byte encoding of Bytes to b.
func (e Element) AppendBytes(b []byte) []byte {
	b = append(b, byte(e.l[4]))
	for i := 3; i >= 0; i-- {
		b = binary.BigEndian.AppendUint64(b, e.l[i])
	}
	return b
}

// Bytes32 returns the 32-byte big-endian encoding of e and true when e is
// below 2^256 (its top limb is zero), and false otherwise. A value solved
// from the hint system must pass it to be a SHA-256 digest.
func (e Element) Bytes32() ([32]byte, bool) {
	var out [32]byte
	if e.l[4] != 0 {
		return out, false
	}
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(out[8*(3-i):], e.l[i])
	}
	return out, true
}

var errNotReduced = errors.New("field: encoded element is not reduced")

// ElementFromCanonicalBytes decodes a fixed-width encoding produced by Bytes.
// It rejects values outside [0, q) so that every element has exactly one
// valid encoding.
func ElementFromCanonicalBytes(b []byte) (Element, error) {
	if len(b) != ElementSize {
		return Element{}, fmt.Errorf("field: encoded element must be %d bytes, got %d", ElementSize, len(b))
	}
	e, ok := decode(b)
	if !ok {
		return Element{}, errNotReduced
	}
	return e, nil
}

// decode reads 33 big-endian bytes and reports whether they are below q.
func decode(b []byte) (Element, bool) {
	_ = b[32]
	l := [5]uint64{
		binary.BigEndian.Uint64(b[25:]),
		binary.BigEndian.Uint64(b[17:]),
		binary.BigEndian.Uint64(b[9:]),
		binary.BigEndian.Uint64(b[1:]),
		uint64(b[0]),
	}
	return Element{l: l}, belowQ(l[0], l[1], l[2], l[3], l[4]) == 1
}

// IsZero reports whether the element is the additive identity.
func (e Element) IsZero() bool { return e.l == [5]uint64{} }

// Equal reports whether two elements are the same field element.
func (e Element) Equal(o Element) bool { return e.l == o.l }

// belowQ returns 1 when x < q and 0 otherwise: the borrow out of x − q.
func belowQ(x0, x1, x2, x3, x4 uint64) uint64 {
	_, b := bits.Sub64(x0, q0, 0)
	_, b = bits.Sub64(x1, 0, b)
	_, b = bits.Sub64(x2, 0, b)
	_, b = bits.Sub64(x3, 0, b)
	_, b = bits.Sub64(x4, 1, b)
	return b
}

// reduceOnce maps x in [0, 2q) to x mod q with a masked select.
func reduceOnce(x0, x1, x2, x3, x4 uint64) (uint64, uint64, uint64, uint64, uint64) {
	d0, b := bits.Sub64(x0, q0, 0)
	d1, b := bits.Sub64(x1, 0, b)
	d2, b := bits.Sub64(x2, 0, b)
	d3, b := bits.Sub64(x3, 0, b)
	d4, b := bits.Sub64(x4, 1, b)
	keep := -b // all ones when x < q
	return d0&^keep | x0&keep, d1&^keep | x1&keep, d2&^keep | x2&keep,
		d3&^keep | x3&keep, d4&^keep | x4&keep
}

// addQIf adds q to x when mask is all ones and returns the sum modulo
// 2^320, so a negative two's-complement x in (−q, 0) comes back in [0, q).
func addQIf(x0, x1, x2, x3, x4, mask uint64) (uint64, uint64, uint64, uint64, uint64) {
	var c uint64
	x0, c = bits.Add64(x0, q0&mask, 0)
	x1, c = bits.Add64(x1, 0, c)
	x2, c = bits.Add64(x2, 0, c)
	x3, c = bits.Add64(x3, 0, c)
	x4, _ = bits.Add64(x4, 1&mask, c)
	return x0, x1, x2, x3, x4
}

// Add returns e + o.
func (e Element) Add(o Element) Element {
	s0, c := bits.Add64(e.l[0], o.l[0], 0)
	s1, c := bits.Add64(e.l[1], o.l[1], c)
	s2, c := bits.Add64(e.l[2], o.l[2], c)
	s3, c := bits.Add64(e.l[3], o.l[3], c)
	s4, _ := bits.Add64(e.l[4], o.l[4], c)
	s0, s1, s2, s3, s4 = reduceOnce(s0, s1, s2, s3, s4)
	return Element{l: [5]uint64{s0, s1, s2, s3, s4}}
}

// Sub returns e - o.
func (e Element) Sub(o Element) Element {
	d0, b := bits.Sub64(e.l[0], o.l[0], 0)
	d1, b := bits.Sub64(e.l[1], o.l[1], b)
	d2, b := bits.Sub64(e.l[2], o.l[2], b)
	d3, b := bits.Sub64(e.l[3], o.l[3], b)
	d4, b := bits.Sub64(e.l[4], o.l[4], b)
	d0, d1, d2, d3, d4 = addQIf(d0, d1, d2, d3, d4, -b)
	return Element{l: [5]uint64{d0, d1, d2, d3, d4}}
}

// Neg returns -e.
func (e Element) Neg() Element { return Element{}.Sub(e) }

// Mul returns e * o.
func (e Element) Mul(o Element) Element {
	a0, a1, a2, a3, a4 := e.l[0], e.l[1], e.l[2], e.l[3], e.l[4]
	b0, b1, b2, b3, b4 := o.l[0], o.l[1], o.l[2], o.l[3], o.l[4]

	// p = A·B for the low four limbs of each operand, row by row.
	var h, p0, p1, p2, p3, p4, p5, p6, p7 uint64
	h, p0 = bits.Mul64(a0, b0)
	h, p1 = madd1(a0, b1, h)
	h, p2 = madd1(a0, b2, h)
	p4, p3 = madd1(a0, b3, h)

	h, p1 = madd1(a1, b0, p1)
	h, p2 = madd2(a1, b1, p2, h)
	h, p3 = madd2(a1, b2, p3, h)
	p5, p4 = madd2(a1, b3, p4, h)

	h, p2 = madd1(a2, b0, p2)
	h, p3 = madd2(a2, b1, p3, h)
	h, p4 = madd2(a2, b2, p4, h)
	p6, p5 = madd2(a2, b3, p5, h)

	h, p3 = madd1(a3, b0, p3)
	h, p4 = madd2(a3, b1, p4, h)
	h, p5 = madd2(a3, b2, p5, h)
	p7, p6 = madd2(a3, b3, p6, h)

	// The top limbs are 0 or 1: add a4·B·2^256 + b4·A·2^256 + a4·b4·2^512.
	ma, mb := -a4, -b4
	var c1, c2 uint64
	p4, c1 = bits.Add64(p4, b0&ma, 0)
	p5, c1 = bits.Add64(p5, b1&ma, c1)
	p6, c1 = bits.Add64(p6, b2&ma, c1)
	p7, c1 = bits.Add64(p7, b3&ma, c1)
	p4, c2 = bits.Add64(p4, a0&mb, 0)
	p5, c2 = bits.Add64(p5, a1&mb, c2)
	p6, c2 = bits.Add64(p6, a2&mb, c2)
	p7, c2 = bits.Add64(p7, a3&mb, c2)
	p8 := c1 + c2 + a4&b4

	// P = L + H·2^256 ≡ L − 297·H, with L = p0..p3 and H = p4..p8 < 2^258.
	// Writing 297·H = T + t4·2^256 (T < 2^256) folds the high limb once more:
	// P ≡ L + 297·t4 − T, a value in (−2^256, 2^256 + 2^20).
	var t0, t1, t2, t3, t4 uint64
	h, t0 = bits.Mul64(p4, q0)
	h, t1 = madd1(p5, q0, h)
	h, t2 = madd1(p6, q0, h)
	h, t3 = madd1(p7, q0, h)
	t4 = p8*q0 + h

	var c, bw uint64
	p0, c = bits.Add64(p0, t4*q0, 0)
	p1, c = bits.Add64(p1, 0, c)
	p2, c = bits.Add64(p2, 0, c)
	p3, c = bits.Add64(p3, 0, c)
	p0, bw = bits.Sub64(p0, t0, 0)
	p1, bw = bits.Sub64(p1, t1, bw)
	p2, bw = bits.Sub64(p2, t2, bw)
	p3, bw = bits.Sub64(p3, t3, bw)
	p4, _ = bits.Sub64(c, 0, bw)
	p0, p1, p2, p3, p4 = reduceOnce(addQIf(p0, p1, p2, p3, p4, -bw))
	return Element{l: [5]uint64{p0, p1, p2, p3, p4}}
}

// madd1 returns x·y + z as (hi, lo).
func madd1(x, y, z uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(x, y)
	lo, c := bits.Add64(lo, z, 0)
	return hi + c, lo
}

// madd2 returns x·y + z + w as (hi, lo); the sum cannot overflow 128 bits.
func madd2(x, y, z, w uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(x, y)
	lo, c := bits.Add64(lo, z, 0)
	hi += c
	lo, c = bits.Add64(lo, w, 0)
	return hi + c, lo
}

var errZeroInverse = errors.New("field: zero has no multiplicative inverse")

// Inv returns the multiplicative inverse of e. It returns an error for the
// zero element, which has no inverse.
func (e Element) Inv() (Element, error) {
	if e.IsZero() {
		return Element{}, errZeroInverse
	}
	return Element{l: inverse(&e.l)}, nil
}

// Div returns e / o, failing when o is zero.
func (e Element) Div(o Element) (Element, error) {
	inv, err := o.Inv()
	if err != nil {
		return Element{}, err
	}
	return e.Mul(inv), nil
}

// String renders the element as a shortened hexadecimal string for debugging.
func (e Element) String() string {
	h := hex.EncodeToString(e.Bytes())
	return h[:8] + "…" + h[len(h)-8:]
}
