package field

import "math/bits"

// Inversion by T. Pornin's optimised binary GCD (IACR ePrint 2020/972,
// Algorithm 2 with k = 31). The invariants are a ≡ u·y and b ≡ v·y (mod q),
// with a, b ≥ 0 and b odd. Each round runs divStepsPerRound binary-GCD steps
// on 62-bit approximations of a and b (their low 30 bits and top 32 bits),
// recording the steps as a signed 2×2 matrix [f0 g0; f1 g1], then applies
// that matrix to the full a, b and u, v. The approximations are exact once a
// and b fit in 62 bits; before that a round may leave a or b negative, which
// the sign fix-up absorbs. The loop ends when a reaches 0, when b = gcd = 1
// and v = 1/y.
//
// The limb arrays are updated in place through pointers, limb by limb: a
// whole-array copy of values just written limb by limb stalls store
// forwarding and costs more than the arithmetic.
const (
	divStepsPerRound = 30
	lowMask          = 1<<divStepsPerRound - 1
	// invRounds bounds the rounds: each removes at least 30 bits from
	// len(a) + len(b), which starts at 2·257 (Pornin, Section 3).
	invRounds = (2*257 - 1 + divStepsPerRound - 1) / divStepsPerRound
)

// inverse returns 1/y mod q for a canonical non-zero y. It takes about 12.6
// rounds on a random input.
func inverse(y *[5]uint64) [5]uint64 {
	a, b := *y, [5]uint64{q0, 0, 0, 0, 1}
	u, v := [5]uint64{1}, [5]uint64{}
	for round := 0; a[0]|a[1]|a[2]|a[3]|a[4] != 0; round++ {
		if round == invRounds {
			panic("field: binary GCD did not converge")
		}
		n := max(bitLen(&a), bitLen(&b), 2*(divStepsPerRound+1))
		xa, xb := approx(&a, n), approx(&b, n)

		// Divsteps without branches. The factors are kept as uint64 and
		// read back as int64: every one stays within ±2^30.
		f0, g0, f1, g1 := uint64(1), uint64(0), uint64(0), uint64(1)
		for j := 0; j < divStepsPerRound; j++ {
			odd := -(xa & 1)
			_, lt := bits.Sub64(xa, xb, 0)
			swap := odd & -lt
			t := (xa ^ xb) & swap
			xa, xb = xa^t, xb^t
			t = (f0 ^ f1) & swap
			f0, f1 = f0^t, f1^t
			t = (g0 ^ g1) & swap
			g0, g1 = g0^t, g1^t
			xa -= xb & odd
			f0 -= f1 & odd
			g0 -= g1 & odd
			xa >>= 1
			f1 <<= 1
			g1 <<= 1
		}
		fa, ga, fb, gb := int64(f0), int64(g0), int64(f1), int64(g1)

		nega, negb := updateAB(&a, &b, fa, ga, fb, gb)
		if nega {
			fa, ga = -fa, -ga
		}
		if negb {
			fb, gb = -fb, -gb
		}
		updateUV(&u, &v, fa, ga, fb, gb)
	}
	return v
}

// bitLen returns the bit length of x.
func bitLen(x *[5]uint64) int {
	for i := 4; i >= 0; i-- {
		if x[i] != 0 {
			return 64*i + bits.Len64(x[i])
		}
	}
	return 0
}

// approx returns the low 30 bits of x followed by its bits [n−32, n), where
// n ≥ 62 is at least the bit length of x.
func approx(x *[5]uint64, n int) uint64 {
	s := n - 32
	i, o := s/64, uint(s%64)
	top := x[i] >> o
	if i < 4 {
		top |= x[i+1] << (64 - o)
	}
	return x[0]&lowMask | (top&(1<<32-1))<<divStepsPerRound
}

// mac2 returns x·f + y·g + c as a signed 128-bit value (lo, hi). Its
// magnitude stays far below 2^127 for |f|, |g| ≤ 2^30 and |c| < 2^62.
func mac2(x, y uint64, f, g, c int64) (uint64, int64) {
	h1, l1 := bits.Mul64(x, uint64(f))
	h2, l2 := bits.Mul64(y, uint64(g))
	lo, k1 := bits.Add64(l1, l2, 0)
	lo, k2 := bits.Add64(lo, uint64(c), 0)
	// x·uint64(f) overshoots x·f by x·2^64 when f < 0; likewise for y, g.
	return lo, int64(h1 + h2 + k1 + k2 + uint64(c>>63) - x&uint64(f>>63) - y&uint64(g>>63))
}

// updateAB sets a and b to |a·f0 + b·g0|/2^30 and |a·f1 + b·g1|/2^30 (the
// divsteps make both divisions exact) and reports which sums were negative.
func updateAB(a, b *[5]uint64, f0, g0, f1, g1 int64) (bool, bool) {
	pa, ca := mac2(a[0], b[0], f0, g0, 0)
	pb, cb := mac2(a[0], b[0], f1, g1, 0)
	for i := 1; i < 5; i++ {
		var la, lb uint64
		la, ca = mac2(a[i], b[i], f0, g0, ca)
		lb, cb = mac2(a[i], b[i], f1, g1, cb)
		a[i-1] = pa>>divStepsPerRound | la<<(64-divStepsPerRound)
		b[i-1] = pb>>divStepsPerRound | lb<<(64-divStepsPerRound)
		pa, pb = la, lb
	}
	a[4] = pa>>divStepsPerRound | uint64(ca)<<(64-divStepsPerRound)
	b[4] = pb>>divStepsPerRound | uint64(cb)<<(64-divStepsPerRound)
	negateIf(a, uint64(ca>>63))
	negateIf(b, uint64(cb>>63))
	return ca < 0, cb < 0
}

// negateIf replaces x by −x mod 2^320 when mask is all ones.
func negateIf(x *[5]uint64, mask uint64) {
	c := mask & 1
	for i := range x {
		x[i], c = bits.Add64(x[i]^mask, 0, c)
	}
}

// updateUV sets u and v to (u·f0 + v·g0)·2^−30 and (u·f1 + v·g1)·2^−30
// mod q, for u, v in [0, q) and |f| + |g| ≤ 2^30 per row. For each row,
// adding k·q with k = −t·q⁻¹ mod 2^30 clears the low 30 bits of the sum t;
// the shifted value lies in (−q, 2q), and two masked corrections bring it
// into [0, q). Since q = 2^256 + 297, k·q is k·297 at limb 0 plus k at
// limb 4.
func updateUV(u, v *[5]uint64, f0, g0, f1, g1 int64) {
	pu, cu := mac2(u[0], v[0], f0, g0, 0)
	pv, cv := mac2(u[0], v[0], f1, g1, 0)
	ku := (pu * qInvNeg) & lowMask
	kv := (pv * qInvNeg) & lowMask
	var c uint64
	pu, c = bits.Add64(pu, ku*q0, 0)
	cu += int64(c)
	pv, c = bits.Add64(pv, kv*q0, 0)
	cv += int64(c)
	var r [2][5]uint64
	for i := 1; i < 5; i++ {
		if i == 4 {
			cu += int64(ku)
			cv += int64(kv)
		}
		var lu, lv uint64
		lu, cu = mac2(u[i], v[i], f0, g0, cu)
		lv, cv = mac2(u[i], v[i], f1, g1, cv)
		r[0][i-1] = pu>>divStepsPerRound | lu<<(64-divStepsPerRound)
		r[1][i-1] = pv>>divStepsPerRound | lv<<(64-divStepsPerRound)
		pu, pv = lu, lv
	}
	r[0][4] = pu>>divStepsPerRound | uint64(cu)<<(64-divStepsPerRound)
	r[1][4] = pv>>divStepsPerRound | uint64(cv)<<(64-divStepsPerRound)
	u[0], u[1], u[2], u[3], u[4] = reduceOnce(addQIf(r[0][0], r[0][1], r[0][2], r[0][3], r[0][4], uint64(cu>>63)))
	v[0], v[1], v[2], v[3], v[4] = reduceOnce(addQIf(r[1][0], r[1][1], r[1][2], r[1][3], r[1][4], uint64(cv>>63)))
}
