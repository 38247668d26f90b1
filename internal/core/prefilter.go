package core

import (
	"sort"

	"sealedbottle/internal/crypt"
)

// ResidueSet is a compact presence set of residues modulo a small prime p: bit
// r is set when the owner has at least one attribute hash h with h mod p == r.
// It is what a candidate ships to a rendezvous broker instead of its profile
// vector — the broker can run the remainder-vector fast check of Section
// III-C1 (Eqs. 6-7, presence form) against stored requests without ever
// learning the candidate's attribute hashes, only their residues.
type ResidueSet struct {
	// Prime is the modulus p the residues are reduced by.
	Prime uint32
	// Bits is the presence bitmap, ⌈p/64⌉ words, little-endian word order.
	Bits []uint64
}

// NewResidueSet builds the presence set of the given residues modulo prime.
// Residues ≥ prime are reduced first, so callers may pass raw values.
func NewResidueSet(prime uint32, residues []uint32) ResidueSet {
	if prime == 0 {
		return ResidueSet{}
	}
	s := ResidueSet{Prime: prime, Bits: make([]uint64, (prime+63)/64)}
	for _, r := range residues {
		r %= prime
		s.Bits[r/64] |= 1 << (r % 64)
	}
	return s
}

// ResidueSetFromVector reduces every digest of a profile vector modulo prime.
func ResidueSetFromVector(v crypt.ProfileVector, prime uint32) ResidueSet {
	return NewResidueSet(prime, v.Remainders(prime))
}

// ResidueSet returns the matcher's own residue presence set for a prime,
// suitable for broker sweep queries.
func (m *Matcher) ResidueSet(prime uint32) ResidueSet {
	return ResidueSetFromVector(m.vector, prime)
}

// Contains reports whether residue r (reduced modulo Prime) is present.
func (s ResidueSet) Contains(r uint32) bool {
	if s.Prime == 0 {
		return false
	}
	r %= s.Prime
	w := int(r / 64)
	if w >= len(s.Bits) {
		return false
	}
	return s.Bits[w]&(1<<(r%64)) != 0
}

// Count returns the number of distinct residues present.
func (s ResidueSet) Count() int {
	n := 0
	for _, w := range s.Bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Valid reports whether the set is structurally sound: an odd prime ≥ 3, a
// bitmap of exactly ⌈p/64⌉ words, and no bits set at or above p.
func (s ResidueSet) Valid() bool {
	if s.Prime < 3 || !isSmallPrime(s.Prime) {
		return false
	}
	if len(s.Bits) != int((s.Prime+63)/64) {
		return false
	}
	last := len(s.Bits) - 1
	if tail := s.Prime % 64; tail != 0 {
		if s.Bits[last]&^(1<<tail-1) != 0 {
			return false
		}
	}
	return true
}

// PrefilterMatch runs the presence form of the fast check (Eqs. 6-7) against
// a candidate's residue set: every necessary position's remainder must be
// present, and at most γ optional positions may be absent. The residue set
// must be for the package's prime; a mismatched prime never matches.
//
// Presence is exactly the |H_k(r_t^i)| > 0 test of Matcher.FastCheck, so a
// package rejected here would also fail the full fast check — the prefilter
// introduces no false dismissals.
func (p *RequestPackage) PrefilterMatch(s ResidueSet) bool {
	if s.Prime != p.Prime {
		return false
	}
	emptyOptional := 0
	for i, want := range p.Remainders {
		if s.Contains(want) {
			continue
		}
		if !p.Optional[i] {
			return false
		}
		if emptyOptional++; emptyOptional > p.MaxUnknown {
			return false
		}
	}
	return true
}

// MergePrimes returns the sorted union of the primes of the given residue
// sets; brokers use it to advertise which moduli are live in their racks.
func MergePrimes(primes ...uint32) []uint32 {
	seen := make(map[uint32]struct{}, len(primes))
	out := make([]uint32, 0, len(primes))
	for _, p := range primes {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
