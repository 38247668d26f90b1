package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"sealedbottle/internal/attr"
)

// DefaultPrime is the small prime p used for the remainder vector when the
// caller does not pick one. The paper uses p = 11 throughout its evaluation.
const DefaultPrime uint32 = 11

// Errors reported while validating a request specification.
var (
	// ErrNoAttributes indicates the request profile is empty.
	ErrNoAttributes = errors.New("core: request has no attributes")
	// ErrBadThreshold indicates β exceeds the number of optional attributes.
	ErrBadThreshold = errors.New("core: minimum optional count exceeds optional attributes")
	// ErrBadPrime indicates the remainder prime is not an odd prime ≥ 3.
	ErrBadPrime = errors.New("core: remainder prime must be an odd prime ≥ 3")
	// ErrOverlap indicates an attribute was listed as both necessary and optional.
	ErrOverlap = errors.New("core: attribute listed as both necessary and optional")
)

// RequestSpec describes what the initiator is searching for: the necessary
// attribute set N_t, the optional attribute set O_t and the minimum number β
// of optional attributes a match must own (Section II-A).
type RequestSpec struct {
	// Necessary lists the α attributes every matching user must own.
	Necessary []attr.Attribute
	// Optional lists the m_t−α attributes of which at least MinOptional must
	// be owned by a matching user.
	Optional []attr.Attribute
	// MinOptional is β. When it equals len(Optional) a perfect match on the
	// optional set is required and no hint matrix is needed (γ = 0).
	MinOptional int
	// Prime is the small prime p used for the remainder vector. Zero selects
	// DefaultPrime.
	Prime uint32
	// DynamicKey, when non-empty, binds every attribute hash to the
	// initiator's current dynamic (location) key, per Section III-D3. Both
	// sides must use the same dynamic key for hashes to agree.
	DynamicKey []byte
}

// PerfectMatch builds a specification that requires every listed attribute
// (θ = 100%): all attributes are necessary.
func PerfectMatch(attrs ...attr.Attribute) RequestSpec {
	return RequestSpec{Necessary: attrs}
}

// FuzzyMatch builds a specification with no necessary attributes that
// requires at least minOptional of the listed attributes (α = 0).
func FuzzyMatch(minOptional int, attrs ...attr.Attribute) RequestSpec {
	return RequestSpec{Optional: attrs, MinOptional: minOptional}
}

// Alpha returns α, the number of necessary attributes.
func (s RequestSpec) Alpha() int { return len(s.Necessary) }

// Beta returns β, the minimum number of optional attributes a match must own.
func (s RequestSpec) Beta() int { return s.MinOptional }

// Gamma returns γ = m_t − α − β, the maximum number of request attributes a
// matching user may be missing.
func (s RequestSpec) Gamma() int { return len(s.Optional) - s.MinOptional }

// Total returns m_t, the total number of request attributes.
func (s RequestSpec) Total() int { return len(s.Necessary) + len(s.Optional) }

// Threshold returns the similarity threshold θ = (α+β)/m_t.
func (s RequestSpec) Threshold() float64 {
	if s.Total() == 0 {
		return 0
	}
	return float64(s.Alpha()+s.Beta()) / float64(s.Total())
}

// EffectivePrime returns the remainder prime, defaulting to DefaultPrime.
func (s RequestSpec) EffectivePrime() uint32 {
	if s.Prime == 0 {
		return DefaultPrime
	}
	return s.Prime
}

// Validate checks the structural invariants of the specification.
func (s RequestSpec) Validate() error {
	if s.Total() == 0 {
		return ErrNoAttributes
	}
	if s.MinOptional < 0 || s.MinOptional > len(s.Optional) {
		return fmt.Errorf("%w: β=%d, optional=%d", ErrBadThreshold, s.MinOptional, len(s.Optional))
	}
	if p := s.EffectivePrime(); p < 3 || !isSmallPrime(p) {
		return fmt.Errorf("%w: p=%d", ErrBadPrime, p)
	}
	necessary := attr.NewProfile(s.Necessary...)
	for _, a := range s.Optional {
		if necessary.Contains(a) {
			return fmt.Errorf("%w: %s", ErrOverlap, a.Canonical())
		}
	}
	// Duplicate attributes within a group would silently weaken the
	// threshold; reject them.
	if necessary.Len() != len(s.Necessary) {
		return errors.New("core: duplicate necessary attributes")
	}
	if attr.NewProfile(s.Optional...).Len() != len(s.Optional) {
		return errors.New("core: duplicate optional attributes")
	}
	return nil
}

// Matches reports whether a profile satisfies the specification in the clear
// (Eq. 1): N_t ⊆ A_m and |O_t ∩ A_m| ≥ β. It is the ground-truth oracle used
// by tests and by the evaluation harness; the privacy-preserving path never
// calls it.
func (s RequestSpec) Matches(p *attr.Profile) bool {
	for _, a := range s.Necessary {
		if !p.Contains(a) {
			return false
		}
	}
	owned := 0
	for _, a := range s.Optional {
		if p.Contains(a) {
			owned++
		}
	}
	return owned >= s.MinOptional
}

// layout is the canonical position assignment of the request attributes: all
// attributes sorted by canonical form, with a parallel mask marking which
// positions are optional. Sorting the whole request (rather than
// necessary-then-optional) preserves the paper's order-consistency pruning
// rule (Eq. 8) across every pair of positions; the optional mask carries the
// same information as the paper's "first α positions are necessary" layout.
type layout struct {
	attrs    []attr.Attribute
	optional []bool
}

// buildLayout sorts the request attributes and marks the optional positions.
func (s RequestSpec) buildLayout() layout {
	type entry struct {
		key      string
		a        attr.Attribute
		optional bool
	}
	entries := make([]entry, 0, s.Total())
	for _, a := range s.Necessary {
		entries = append(entries, entry{key: a.Canonical(), a: a})
	}
	for _, a := range s.Optional {
		entries = append(entries, entry{key: a.Canonical(), a: a, optional: true})
	}
	slices.SortFunc(entries, func(x, y entry) int { return strings.Compare(x.key, y.key) })
	l := layout{
		attrs:    make([]attr.Attribute, len(entries)),
		optional: make([]bool, len(entries)),
	}
	for i, e := range entries {
		l.attrs[i] = e.a
		l.optional[i] = e.optional
	}
	return l
}

// isSmallPrime is a deterministic trial-division primality check adequate for
// the 32-bit remainder primes the mechanism uses.
func isSmallPrime(n uint32) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := uint32(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}
