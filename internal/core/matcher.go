package core

import (
	"errors"
	"fmt"

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
	cfg        MatcherConfig
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
	return &Matcher{profile: profile.Clone(), vector: vector, cfg: cfg}, nil
}

// SetDynamicKey rebinds the matcher's profile vector to a dynamic (location)
// key, per Section III-D3. Passing nil restores plain attribute hashing.
func (m *Matcher) SetDynamicKey(key []byte) error {
	vector, err := crypt.VectorFromProfileBound(m.profile, key)
	if err != nil {
		return err
	}
	m.dynamicKey = append([]byte(nil), key...)
	m.vector = vector
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
	own := m.vector.Remainders(pkg.Prime)
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
	diag := &Diagnostics{FastCheck: m.FastCheck(pkg)}
	if !diag.FastCheck.Candidate {
		return nil, diag, nil
	}
	assignments, err := m.enumerate(pkg)
	if err != nil {
		return nil, diag, err
	}
	diag.VectorsEnumerated = len(assignments)

	optionalRank := optionalRanks(pkg.Optional)
	var aug field.Matrix // the [sub | rhs] buffer every assignment reuses
	out := make([]CandidateVector, 0, len(assignments))
	for _, asg := range assignments {
		cv, solved, ok := m.recover(pkg, asg, optionalRank, &aug)
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

// assignment maps request positions to the user's own vector indices, with -1
// marking unknown positions.
type assignment []int

// enumerate performs the depth-first search over order-consistent assignments
// (Eq. 8): chosen own-vector indices must be strictly increasing across
// request positions, necessary positions must be assigned, and at most γ
// optional positions may remain unknown.
func (m *Matcher) enumerate(pkg *RequestPackage) ([]assignment, error) {
	own := m.vector.Remainders(pkg.Prime)
	positions := len(pkg.Remainders)
	// Precompute the candidate subsets H_k(r_t^i) as sorted own indices.
	subsets := make([][]int, positions)
	for i, want := range pkg.Remainders {
		for idx, r := range own {
			if r == want {
				subsets[i] = append(subsets[i], idx)
			}
		}
	}

	var out []assignment
	cur := make(assignment, positions)
	var dfs func(pos, lastIdx, unknowns int) error
	dfs = func(pos, lastIdx, unknowns int) error {
		if len(out) >= m.cfg.MaxCandidateVectors {
			return ErrTooManyCandidates
		}
		if pos == positions {
			out = append(out, append(assignment(nil), cur...))
			return nil
		}
		optional := pkg.Optional[pos]
		// Option 1: assign one of the user's own hashes, keeping order.
		for _, idx := range subsets[pos] {
			if idx <= lastIdx {
				continue
			}
			cur[pos] = idx
			if err := dfs(pos+1, idx, unknowns); err != nil {
				return err
			}
		}
		// Option 2: leave the position unknown (optional positions only).
		canSkip := optional && unknowns < pkg.MaxUnknown &&
			(len(subsets[pos]) == 0 || m.cfg.AllowCollisionSkip)
		if canSkip {
			cur[pos] = -1
			if err := dfs(pos+1, lastIdx, unknowns+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(0, -1, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// optionalRanks maps each layout position to its rank among optional
// positions (the column index of the hint matrix), or -1 for necessary ones.
func optionalRanks(optional []bool) []int {
	ranks := make([]int, len(optional))
	rank := 0
	for i, opt := range optional {
		if opt {
			ranks[i] = rank
			rank++
		} else {
			ranks[i] = -1
		}
	}
	return ranks
}

// recover turns an assignment into a full candidate vector, solving the hint
// system C·h = B for unknown optional positions (Eqs. 12-13). It reports the
// number of linear systems solved and whether the recovery succeeded. aug is
// the caller's scratch for the augmented system: it grows once to γ×(γ+1)
// and is reused by every later assignment of the same request.
func (m *Matcher) recover(pkg *RequestPackage, asg assignment, optionalRank []int, aug *field.Matrix) (CandidateVector, int, bool) {
	cv := CandidateVector{
		Digests:    make(crypt.ProfileVector, len(asg)),
		OwnIndices: make([]int, len(asg)),
	}
	for pos, idx := range asg {
		cv.OwnIndices[pos] = idx
		if idx >= 0 {
			cv.Digests[pos] = m.vector[idx]
			continue
		}
		cv.Unknowns++
	}
	if cv.Unknowns == 0 {
		return cv, 0, true
	}
	hint := pkg.Hint
	if hint == nil {
		return cv, 0, false
	}
	gamma, u := hint.Gamma(), cv.Unknowns
	if aug.Rows() == 0 {
		// First system of this request: size the buffer for the widest one.
		if err := aug.Reshape(gamma, gamma+1); err != nil {
			return cv, 0, false
		}
	}
	if err := aug.Reshape(gamma, u+1); err != nil {
		return cv, 0, false
	}
	// Build [sub | rhs]: the unknown columns of C, then
	// rhs_i = B_i − Σ_{j known} C[i][j]·h_j.
	for i := 0; i < gamma; i++ {
		aug.Set(i, u, hint.B[i])
	}
	j := 0
	for pos, idx := range asg {
		rank := optionalRank[pos]
		if rank < 0 {
			continue
		}
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
	if err := field.SolveAugmented(aug); err != nil {
		// Inconsistent or degenerate: this assignment cannot be the true
		// request vector.
		return cv, 1, false
	}
	j = 0
	for pos, idx := range asg {
		if idx >= 0 {
			continue
		}
		d, ok := aug.At(j, u).Bytes32()
		if !ok {
			// The solved value does not fit in 256 bits, so it cannot be a
			// SHA-256 hash; reject the assignment.
			return cv, 1, false
		}
		cv.Digests[pos] = d
		j++
	}
	return cv, 1, true
}
