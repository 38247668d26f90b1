package core

import (
	"errors"
	"fmt"
	"slices"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/crypt"
	"sealedbottle/internal/field"
)

// DefaultMaxCandidateVectors bounds the number of candidate profile vectors a
// participant is willing to enumerate for a single request. Ordinary users
// have a few dozen attributes and produce a handful of candidates (Fig. 7);
// the cap exists to keep a maliciously crafted request from exhausting a
// relay's CPU.
const DefaultMaxCandidateVectors = 4096

// MatcherConfig tunes the participant-side matching behaviour.
type MatcherConfig struct {
	// MaxCandidateVectors caps enumeration work; zero selects the default.
	MaxCandidateVectors int
	// AllowCollisionSkip additionally lets the matcher treat an optional
	// position as unknown even when some of its own hashes share the
	// remainder (a collision), as long as the total number of unknowns stays
	// within γ. The paper's scheme only treats empty candidate subsets as
	// unknown; enabling this closes the rare false-negative window where a
	// remainder collision masks a genuinely missing attribute, at the price
	// of enumerating a few more candidate vectors.
	AllowCollisionSkip bool
}

// Matcher is the participant/relay side of the mechanism: it holds the user's
// own profile vector and processes incoming request packages (fast check,
// candidate vector enumeration, hint solving, candidate key generation).
type Matcher struct {
	profile    *attr.Profile
	dynamicKey []byte
	vector     crypt.ProfileVector
	// defaultRemainders is vector reduced mod DefaultPrime, the prime of
	// nearly every request. It is set with vector and only read afterwards,
	// so concurrent requests share it; other primes are reduced per request.
	defaultRemainders []uint32
	cfg               MatcherConfig
}

// ErrTooManyCandidates indicates the enumeration cap was hit; the request is
// treated as suspicious and dropped rather than half-processed.
var ErrTooManyCandidates = errors.New("core: candidate vector enumeration exceeded configured cap")

// NewMatcher builds a matcher for the given profile.
func NewMatcher(profile *attr.Profile, cfg MatcherConfig) (*Matcher, error) {
	if profile == nil || profile.Len() == 0 {
		return nil, crypt.ErrEmptyProfile
	}
	if cfg.MaxCandidateVectors <= 0 {
		cfg.MaxCandidateVectors = DefaultMaxCandidateVectors
	}
	vector, err := crypt.VectorFromProfile(profile)
	if err != nil {
		return nil, err
	}
	m := &Matcher{profile: profile.Clone(), cfg: cfg}
	m.setVector(vector)
	return m, nil
}

// setVector installs the matcher's profile vector and its remainders mod
// DefaultPrime.
func (m *Matcher) setVector(vector crypt.ProfileVector) {
	m.vector = vector
	m.defaultRemainders = vector.Remainders(DefaultPrime)
}

// remainders returns the matcher's remainder vector mod prime. The
// DefaultPrime one is shared and must not be written.
func (m *Matcher) remainders(prime uint32) []uint32 {
	if prime == DefaultPrime {
		return m.defaultRemainders
	}
	return m.vector.Remainders(prime)
}

// SetDynamicKey rebinds the matcher's profile vector to a dynamic (location)
// key, per Section III-D3. Passing nil restores plain attribute hashing.
func (m *Matcher) SetDynamicKey(key []byte) error {
	vector, err := crypt.VectorFromProfileBound(m.profile, key)
	if err != nil {
		return err
	}
	m.dynamicKey = append([]byte(nil), key...)
	m.setVector(vector)
	return nil
}

// Profile returns a copy of the matcher's profile.
func (m *Matcher) Profile() *attr.Profile { return m.profile.Clone() }

// Vector returns a copy of the matcher's profile vector.
func (m *Matcher) Vector() crypt.ProfileVector { return m.vector.Clone() }

// FastCheckResult reports the outcome of the remainder-vector fast check.
type FastCheckResult struct {
	// Candidate is true when the user passes the fast check and must proceed
	// to candidate-vector enumeration.
	Candidate bool
	// EmptyNecessary counts necessary positions with no matching remainder;
	// any non-zero value disqualifies the user (Eq. 6).
	EmptyNecessary int
	// EmptyOptional counts optional positions with no matching remainder; it
	// must not exceed γ (Eq. 7).
	EmptyOptional int
	// SubsetSizes holds |H_k(r_t^i)| for every request position.
	SubsetSizes []int
}

// FastCheck runs the cheap remainder-vector screening of Section III-C1: for
// every request position it counts how many of the user's own attribute
// hashes share the remainder, then applies Eqs. 6-7. Most non-matching users
// are dismissed here after m_k modulo operations and a few comparisons.
func (m *Matcher) FastCheck(pkg *RequestPackage) FastCheckResult {
	return fastCheck(pkg, m.remainders(pkg.Prime))
}

// fastCheck is FastCheck against the matcher's remainder vector own.
func fastCheck(pkg *RequestPackage, own []uint32) FastCheckResult {
	res := FastCheckResult{SubsetSizes: make([]int, len(pkg.Remainders))}
	for i, want := range pkg.Remainders {
		n := 0
		for _, r := range own {
			if r == want {
				n++
			}
		}
		res.SubsetSizes[i] = n
		if n == 0 {
			if pkg.Optional[i] {
				res.EmptyOptional++
			} else {
				res.EmptyNecessary++
			}
		}
	}
	res.Candidate = res.EmptyNecessary == 0 && res.EmptyOptional <= pkg.MaxUnknown
	return res
}

// CandidateVector is one fully recovered candidate request profile vector
// H'_c: a digest for every request position, with unknown positions filled in
// by solving the hint system.
type CandidateVector struct {
	// Digests is the recovered vector, one digest per request position.
	Digests crypt.ProfileVector
	// OwnIndices maps request positions to indices in the user's own profile
	// vector, or -1 where the value was recovered via the hint matrix.
	OwnIndices []int
	// Unknowns is the number of positions recovered via the hint matrix.
	Unknowns int
}

// Diagnostics reports how much work a request cost this participant; the
// evaluation harness aggregates these to reproduce Figs. 6-7 and Table VI.
type Diagnostics struct {
	// FastCheck is the result of the remainder screening.
	FastCheck FastCheckResult
	// VectorsEnumerated is the number of order-consistent assignments found.
	VectorsEnumerated int
	// HintSystemsSolved is the number of linear systems solved.
	HintSystemsSolved int
	// KeysGenerated is the number of distinct candidate profile keys (κ_k).
	KeysGenerated int
}

// CandidateVectors enumerates every order-consistent candidate assignment
// (Eqs. 5-8), solves the hint system for missing positions, and returns the
// recovered candidate profile vectors. Assignments whose hint system is
// inconsistent, or whose recovered values cannot be 256-bit hashes, are
// discarded — they cannot correspond to the true request vector.
func (m *Matcher) CandidateVectors(pkg *RequestPackage) ([]CandidateVector, *Diagnostics, error) {
	if err := pkg.validate(); err != nil {
		return nil, nil, err
	}
	own := m.remainders(pkg.Prime)
	diag := &Diagnostics{FastCheck: fastCheck(pkg, own)}
	if !diag.FastCheck.Candidate {
		return nil, diag, nil
	}
	var flatBuf [64]int // holds the assignments of most requests
	flat, err := m.enumerate(flatBuf[:0], pkg, own, diag.FastCheck.SubsetSizes)
	if err != nil {
		return nil, diag, err
	}
	positions := len(pkg.Remainders)
	diag.VectorsEnumerated = len(flat) / positions

	var aug field.Matrix // the [sub | rhs] buffer every assignment reuses
	var out []CandidateVector
	for a := 0; a < len(flat); a += positions {
		cv, solved, ok := m.recover(pkg, flat[a:a+positions], &aug)
		diag.HintSystemsSolved += solved
		if !ok {
			continue
		}
		out = append(out, cv)
	}
	return out, diag, nil
}

// CandidateKeys derives the distinct candidate profile keys K_c = H(H'_c)
// from the candidate vectors.
func (m *Matcher) CandidateKeys(pkg *RequestPackage) ([]crypt.Key, *Diagnostics, error) {
	vectors, diag, err := m.CandidateVectors(pkg)
	if err != nil {
		return nil, diag, err
	}
	seen := make(map[crypt.Key]struct{}, len(vectors))
	keys := make([]crypt.Key, 0, len(vectors))
	for _, cv := range vectors {
		k, err := cv.Digests.Key()
		if err != nil {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	diag.KeysGenerated = len(keys)
	return keys, diag, nil
}

// UnsealResult is the outcome of attempting to open a verifiable request.
type UnsealResult struct {
	// Matched is true when one of the candidate keys opened the message.
	Matched bool
	// ProfileKey is the recovered request profile key (only when Matched).
	ProfileKey crypt.Key
	// X is the initiator's session key recovered from the message.
	X crypt.Key
	// Note is the optional application payload from the message.
	Note []byte
}

// TryUnseal attempts to open a verifiable (Protocol 1) request with every
// candidate key. For opaque requests it returns an error: there is nothing to
// verify against, use CandidateSessionKeys instead.
func (m *Matcher) TryUnseal(pkg *RequestPackage) (*UnsealResult, *Diagnostics, error) {
	if pkg.Mode != SealModeVerifiable {
		return nil, nil, fmt.Errorf("core: TryUnseal requires a verifiable request, got %v", pkg.Mode)
	}
	keys, diag, err := m.CandidateKeys(pkg)
	if err != nil {
		return nil, diag, err
	}
	for _, k := range keys {
		plaintext, err := crypt.OpenVerifiable(k, pkg.Sealed)
		if err != nil {
			continue
		}
		x, note, err := decodePayload(plaintext)
		if err != nil {
			continue
		}
		return &UnsealResult{Matched: true, ProfileKey: k, X: x, Note: note}, diag, nil
	}
	return &UnsealResult{}, diag, nil
}

// CandidateSessionKeys decrypts an opaque (Protocol 2/3) request with every
// candidate key and returns the resulting session-key guesses x_j. The caller
// cannot tell which (if any) is the initiator's true x — that is the point.
func (m *Matcher) CandidateSessionKeys(pkg *RequestPackage) ([]crypt.Key, *Diagnostics, error) {
	if pkg.Mode != SealModeOpaque {
		return nil, nil, fmt.Errorf("core: CandidateSessionKeys requires an opaque request, got %v", pkg.Mode)
	}
	keys, diag, err := m.CandidateKeys(pkg)
	if err != nil {
		return nil, diag, err
	}
	out := make([]crypt.Key, 0, len(keys))
	for _, k := range keys {
		plaintext, err := crypt.OpenOpaque(k, pkg.Sealed)
		if err != nil {
			continue
		}
		x, _, err := decodePayload(plaintext)
		if err != nil {
			continue
		}
		out = append(out, x)
	}
	return out, diag, nil
}

// enumerate performs the depth-first search over order-consistent assignments
// (Eq. 8) and appends every assignment to flat, one request position after
// another, back to back. An assignment maps request positions to the user's
// own vector indices, with -1 marking unknown positions: chosen own-vector
// indices must be strictly increasing across request positions, necessary
// positions must be assigned, and at most γ optional positions may remain
// unknown. own is the user's remainder vector mod the request's prime and
// sizes the fast check's subset sizes.
func (m *Matcher) enumerate(flat []int, pkg *RequestPackage, own []uint32, sizes []int) ([]int, error) {
	var curBuf [16]int // cur's room for requests of up to 16 attributes
	e := enumeration{
		pkg:     pkg,
		own:     own,
		sizes:   sizes,
		skipAll: m.cfg.AllowCollisionSkip,
		max:     m.cfg.MaxCandidateVectors,
		cur:     slices.Grow(curBuf[:0], len(pkg.Remainders))[:len(pkg.Remainders)],
	}
	return e.dfs(flat, 0, -1, 0)
}

// enumeration is the state of enumerate's search.
type enumeration struct {
	pkg *RequestPackage
	// own is the user's remainder vector; the candidate subset H_k(r_t^i)
	// of a position is the own indices whose remainder equals the
	// position's, in increasing order.
	own     []uint32
	sizes   []int
	skipAll bool // MatcherConfig.AllowCollisionSkip
	max     int  // MatcherConfig.MaxCandidateVectors
	// cur is the assignment being built.
	cur []int
}

// dfs extends the assignment from position pos on and appends every
// complete one to flat.
func (e *enumeration) dfs(flat []int, pos, lastIdx, unknowns int) ([]int, error) {
	if len(flat) >= e.max*len(e.cur) {
		return flat, ErrTooManyCandidates
	}
	if pos == len(e.cur) {
		return append(flat, e.cur...), nil
	}
	// Option 1: assign one of the user's own hashes, keeping order.
	want := e.pkg.Remainders[pos]
	for idx := lastIdx + 1; idx < len(e.own); idx++ {
		if e.own[idx] != want {
			continue
		}
		e.cur[pos] = idx
		var err error
		if flat, err = e.dfs(flat, pos+1, idx, unknowns); err != nil {
			return flat, err
		}
	}
	// Option 2: leave the position unknown (optional positions only).
	canSkip := e.pkg.Optional[pos] && unknowns < e.pkg.MaxUnknown &&
		(e.sizes[pos] == 0 || e.skipAll)
	if canSkip {
		e.cur[pos] = -1
		return e.dfs(flat, pos+1, lastIdx, unknowns+1)
	}
	return flat, nil
}

// recover turns an assignment into a full candidate vector, solving the hint
// system C·h = B for unknown optional positions (Eqs. 12-13). It reports the
// number of linear systems solved and whether the recovery succeeded; only a
// successful one allocates the vector. aug is the caller's scratch for the
// augmented system: it grows once to γ×(γ+1) and is reused by every later
// assignment of the same request.
func (m *Matcher) recover(pkg *RequestPackage, asg []int, aug *field.Matrix) (CandidateVector, int, bool) {
	u := 0
	for _, idx := range asg {
		if idx < 0 {
			u++
		}
	}
	solved := 0
	if u > 0 {
		if pkg.Hint == nil {
			return CandidateVector{}, 0, false
		}
		solved = 1
		if !m.solveUnknowns(pkg.Hint, pkg.Optional, asg, u, aug) {
			return CandidateVector{}, solved, false
		}
	}
	cv := CandidateVector{
		Digests:    make(crypt.ProfileVector, len(asg)),
		OwnIndices: make([]int, len(asg)),
		Unknowns:   u,
	}
	j := 0
	for pos, idx := range asg {
		cv.OwnIndices[pos] = idx
		if idx >= 0 {
			cv.Digests[pos] = m.vector[idx]
			continue
		}
		d, ok := aug.At(j, u).Bytes32()
		if !ok {
			// The solved value does not fit in 256 bits, so it cannot be a
			// SHA-256 hash; reject the assignment.
			return CandidateVector{}, solved, false
		}
		cv.Digests[pos] = d
		j++
	}
	return cv, solved, true
}

// solveUnknowns solves the hint system for the u unknown positions of asg,
// leaving unknown j's value in aug's column u, row j. It reports false when
// the system is inconsistent or degenerate: the assignment then cannot be the
// true request vector.
func (m *Matcher) solveUnknowns(hint *HintMatrix, optional []bool, asg []int, u int, aug *field.Matrix) bool {
	gamma := hint.Gamma()
	if aug.Rows() == 0 {
		// First system of this request: size the buffer for the widest one.
		if err := aug.Reshape(gamma, gamma+1); err != nil {
			return false
		}
	}
	if err := aug.Reshape(gamma, u+1); err != nil {
		return false
	}
	// Build [sub | rhs]: the unknown columns of C, then
	// rhs_i = B_i − Σ_{j known} C[i][j]·h_j. An optional position's rank
	// among the optional positions is its column of C.
	for i := 0; i < gamma; i++ {
		aug.Set(i, u, hint.B[i])
	}
	j, rank := 0, -1
	for pos, idx := range asg {
		if !optional[pos] {
			continue
		}
		rank++
		if idx < 0 {
			for i := 0; i < gamma; i++ {
				aug.Set(i, j, hint.C.At(i, rank))
			}
			j++
			continue
		}
		h := field.FromBytes(m.vector[idx][:])
		for i := 0; i < gamma; i++ {
			aug.Set(i, u, aug.At(i, u).Sub(hint.C.At(i, rank).Mul(h)))
		}
	}
	return field.SolveAugmented(aug) == nil
}
