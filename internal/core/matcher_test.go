package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/crypt"
	"sealedbottle/internal/field"
)

func TestNewMatcherValidation(t *testing.T) {
	if _, err := NewMatcher(nil, MatcherConfig{}); err == nil {
		t.Error("nil profile should fail")
	}
	if _, err := NewMatcher(attr.NewProfile(), MatcherConfig{}); err == nil {
		t.Error("empty profile should fail")
	}
	m := mustMatcher(t, profileOf("a", "b"), MatcherConfig{})
	if m.Profile().Len() != 2 || m.Vector().Len() != 2 {
		t.Error("matcher did not capture the profile")
	}
}

func TestFastCheckExcludesObviouslyUnmatched(t *testing.T) {
	spec := PerfectMatch(tags("alpha", "beta", "gamma")...)
	built := mustBuild(t, spec, BuildOptions{})

	owner := mustMatcher(t, profileOf("alpha", "beta", "gamma", "extra"), MatcherConfig{})
	res := owner.FastCheck(built.Package)
	if !res.Candidate {
		t.Error("true owner must pass the fast check")
	}
	if res.EmptyNecessary != 0 {
		t.Errorf("owner has %d empty necessary positions", res.EmptyNecessary)
	}

	// A profile with completely unrelated attributes is excluded with very
	// high probability (each position needs a mod-11 collision).
	misses := 0
	for i := 0; i < 50; i++ {
		p := profileOf(fmt.Sprintf("zz%d", i), fmt.Sprintf("yy%d", i))
		m := mustMatcher(t, p, MatcherConfig{})
		if !m.FastCheck(built.Package).Candidate {
			misses++
		}
	}
	if misses < 40 {
		t.Errorf("fast check excluded only %d/50 unrelated users", misses)
	}
}

func TestFastCheckFuzzyAllowsGammaMissing(t *testing.T) {
	spec := RequestSpec{
		Necessary:   tags("n1"),
		Optional:    tags("o1", "o2", "o3", "o4"),
		MinOptional: 2, // γ = 2
	}
	built := mustBuild(t, spec, BuildOptions{})

	// Owns the necessary attribute and two optional ones: candidate.
	ok := mustMatcher(t, profileOf("n1", "o1", "o2"), MatcherConfig{})
	if !ok.FastCheck(built.Package).Candidate {
		t.Error("user meeting the threshold must pass the fast check")
	}
	// Missing the necessary attribute: excluded unless a remainder collides.
	missingNecessary := mustMatcher(t, profileOf("o1", "o2", "o3", "o4"), MatcherConfig{})
	res := missingNecessary.FastCheck(built.Package)
	if res.Candidate && res.EmptyNecessary > 0 {
		t.Error("candidate flag inconsistent with empty necessary positions")
	}
}

func TestCandidateKeysRecoverExactMatch(t *testing.T) {
	spec := PerfectMatch(tags("male", "columbia", "basketball")...)
	built := mustBuild(t, spec, BuildOptions{})

	m := mustMatcher(t, profileOf("male", "columbia", "basketball", "cooking", "hiking"), MatcherConfig{})
	keys, diag, err := m.CandidateKeys(built.Package)
	if err != nil {
		t.Fatal(err)
	}
	if diag.KeysGenerated != len(keys) {
		t.Error("diagnostics key count mismatch")
	}
	found := false
	for _, k := range keys {
		if k.Equal(built.Key) {
			found = true
		}
	}
	if !found {
		t.Fatal("exact matching user failed to recover the profile key")
	}
}

func TestCandidateKeysRecoverFuzzyMatchViaHint(t *testing.T) {
	spec := RequestSpec{
		Necessary:   tags("male"),
		Optional:    tags("basketball", "chess", "golf", "tennis"),
		MinOptional: 2, // γ = 2: may be missing up to two optional attributes
	}
	built := mustBuild(t, spec, BuildOptions{})

	// This user owns the necessary attribute and exactly two optional ones;
	// the other two must be recovered by solving the hint system. Collision
	// skipping is enabled so that a mod-p collision between an owned hash and
	// a missing optional attribute cannot mask the true assignment.
	m := mustMatcher(t, profileOf("male", "basketball", "golf", "swimming"), MatcherConfig{AllowCollisionSkip: true})
	keys, diag, err := m.CandidateKeys(built.Package)
	if err != nil {
		t.Fatal(err)
	}
	if diag.HintSystemsSolved == 0 {
		t.Error("expected at least one hint system to be solved")
	}
	found := false
	for _, k := range keys {
		if k.Equal(built.Key) {
			found = true
		}
	}
	if !found {
		t.Fatal("fuzzy matching user failed to recover the profile key via the hint matrix")
	}
}

func TestCandidateKeysBelowThresholdDoNotRecover(t *testing.T) {
	spec := RequestSpec{
		Necessary:   tags("male"),
		Optional:    tags("basketball", "chess", "golf", "tennis"),
		MinOptional: 3, // γ = 1
	}
	built := mustBuild(t, spec, BuildOptions{})

	// Owns only one optional attribute (below β = 3).
	m := mustMatcher(t, profileOf("male", "basketball", "swimming", "reading"), MatcherConfig{})
	keys, _, err := m.CandidateKeys(built.Package)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k.Equal(built.Key) {
			t.Fatal("user below the similarity threshold recovered the profile key")
		}
	}
}

func TestTryUnsealProtocol1(t *testing.T) {
	spec := PerfectMatch(tags("a", "b", "c")...)
	built := mustBuild(t, spec, BuildOptions{Mode: SealModeVerifiable, Note: []byte("meet me")})

	match := mustMatcher(t, profileOf("a", "b", "c", "d"), MatcherConfig{})
	res, _, err := match.TryUnseal(built.Package)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched {
		t.Fatal("matching user should unseal")
	}
	if !res.X.Equal(built.X) {
		t.Error("recovered x mismatch")
	}
	if string(res.Note) != "meet me" {
		t.Errorf("note = %q", res.Note)
	}
	if !res.ProfileKey.Equal(built.Key) {
		t.Error("recovered profile key mismatch")
	}

	miss := mustMatcher(t, profileOf("a", "b", "x"), MatcherConfig{})
	res2, _, err := miss.TryUnseal(built.Package)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Matched {
		t.Error("non-matching user must not unseal")
	}

	// TryUnseal on an opaque package is a usage error.
	opaque := mustBuild(t, spec, BuildOptions{Mode: SealModeOpaque})
	if _, _, err := match.TryUnseal(opaque.Package); err == nil {
		t.Error("TryUnseal on opaque package should fail")
	}
}

func TestCandidateSessionKeysOpaque(t *testing.T) {
	spec := PerfectMatch(tags("a", "b", "c")...)
	built := mustBuild(t, spec, BuildOptions{Mode: SealModeOpaque})

	match := mustMatcher(t, profileOf("a", "b", "c"), MatcherConfig{})
	xs, diag, err := match.CandidateSessionKeys(built.Package)
	if err != nil {
		t.Fatal(err)
	}
	if diag.KeysGenerated == 0 {
		t.Error("expected candidate keys")
	}
	found := false
	for _, x := range xs {
		if x.Equal(built.X) {
			found = true
		}
	}
	if !found {
		t.Error("matching user's candidate session keys must include the true x")
	}
	if _, _, err := match.CandidateSessionKeys(mustBuild(t, spec, BuildOptions{Mode: SealModeVerifiable}).Package); err == nil {
		t.Error("CandidateSessionKeys on verifiable package should fail")
	}
}

func TestMatcherDynamicKeyMustAgree(t *testing.T) {
	spec := PerfectMatch(tags("a", "b")...)
	spec.DynamicKey = []byte("lattice-zone-1")
	built := mustBuild(t, spec, BuildOptions{})

	m := mustMatcher(t, profileOf("a", "b"), MatcherConfig{})
	// Without binding the same dynamic key the hashes disagree.
	res, _, err := m.TryUnseal(built.Package)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched {
		t.Error("matching without the dynamic key should fail")
	}
	if err := m.SetDynamicKey([]byte("lattice-zone-1")); err != nil {
		t.Fatal(err)
	}
	res, _, err = m.TryUnseal(built.Package)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched {
		t.Error("matching with the correct dynamic key should succeed")
	}
}

func TestEnumerationCapTriggers(t *testing.T) {
	// A request whose remainders all coincide with the user's attributes
	// creates a combinatorial number of assignments; the cap must fire.
	values := make([]string, 12)
	for i := range values {
		values[i] = fmt.Sprintf("v%02d", i)
	}
	spec := FuzzyMatch(4, tags(values...)...)
	built := mustBuild(t, spec, BuildOptions{Mode: SealModeOpaque})

	m := mustMatcher(t, profileOf(values...), MatcherConfig{MaxCandidateVectors: 3, AllowCollisionSkip: true})
	_, _, err := m.CandidateVectors(built.Package)
	if !errors.Is(err, ErrTooManyCandidates) {
		t.Errorf("want ErrTooManyCandidates, got %v", err)
	}
}

// Property (completeness): every user whose profile satisfies the request
// spec recovers the profile key; Property (soundness): users who do not meet
// the threshold never do. Attribute values are drawn from disjoint pools per
// position so remainder collisions cannot mask missing attributes.
func TestMatchingCompletenessAndSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := rng.Intn(3)
		optTotal := 1 + rng.Intn(4)
		beta := rng.Intn(optTotal + 1)
		if alpha == 0 && beta == 0 {
			beta = 1
		}

		necessary := make([]attr.Attribute, alpha)
		for i := range necessary {
			necessary[i] = attr.MustNew("nec", fmt.Sprintf("n%d-%d", i, rng.Intn(1000)))
		}
		optional := make([]attr.Attribute, optTotal)
		for i := range optional {
			optional[i] = attr.MustNew("opt", fmt.Sprintf("o%d-%d", i, rng.Intn(1000)))
		}
		spec := RequestSpec{Necessary: necessary, Optional: optional, MinOptional: beta}
		built, err := BuildRequest(spec, BuildOptions{Rand: newDetRand(seed), Now: fixedClock(testEpoch)})
		if err != nil {
			return false
		}

		// Candidate profile: all necessary, a random subset of optional, plus noise.
		p := attr.NewProfile()
		ownsNecessary := true
		for _, a := range necessary {
			if rng.Intn(10) == 0 { // occasionally drop one
				ownsNecessary = false
				continue
			}
			p.Add(a)
		}
		owned := 0
		for _, a := range optional {
			if rng.Intn(2) == 0 {
				p.Add(a)
				owned++
			}
		}
		for i := 0; i < rng.Intn(4); i++ {
			p.Add(attr.MustNew("noise", fmt.Sprintf("x%d-%d", i, rng.Intn(1000))))
		}
		if p.Len() == 0 {
			p.Add(attr.MustNew("noise", "filler"))
		}

		m, err := NewMatcher(p, MatcherConfig{AllowCollisionSkip: true})
		if err != nil {
			return false
		}
		keys, _, err := m.CandidateKeys(built.Package)
		if err != nil {
			return false
		}
		recovered := false
		for _, k := range keys {
			if k.Equal(built.Key) {
				recovered = true
			}
		}
		shouldMatch := ownsNecessary && owned >= beta && spec.Matches(p)
		return recovered == shouldMatch
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the diagnostics candidate-key count κ_k equals the number of
// distinct keys returned, and unmatched users that fail the fast check incur
// zero enumeration work.
func TestDiagnosticsConsistencyProperty(t *testing.T) {
	spec := PerfectMatch(tags("p", "q", "r")...)
	built := mustBuild(t, spec, BuildOptions{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := attr.NewProfile()
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			p.Add(attr.MustNew("tag", fmt.Sprintf("t%d", rng.Intn(50))))
		}
		m, err := NewMatcher(p, MatcherConfig{})
		if err != nil {
			return false
		}
		keys, diag, err := m.CandidateKeys(built.Package)
		if err != nil {
			return false
		}
		if diag.KeysGenerated != len(keys) {
			return false
		}
		if !diag.FastCheck.Candidate && diag.VectorsEnumerated != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A hint whose solution does not fit in 256 bits cannot hide a SHA-256
// digest, so recover must discard that assignment: the guard is Bytes32's
// top-limb check on the solved value. The success path is pinned first.
func TestCandidateVectorsRejectNonDigestSolutions(t *testing.T) {
	spec := RequestSpec{
		Necessary:   tags("n1"),
		Optional:    tags("o1", "o2"),
		MinOptional: 1,
	}
	built := mustBuild(t, spec, BuildOptions{})
	// A user owning n1 and o1 recovers o2 via the hint; the recovered value
	// equals the true hash, which always fits.
	m := mustMatcher(t, profileOf("n1", "o1"), MatcherConfig{})
	vectors, diag, err := m.CandidateVectors(built.Package)
	if err != nil {
		t.Fatal(err)
	}
	if diag.HintSystemsSolved == 0 {
		t.Fatal("expected hint solving")
	}
	foundTrue := false
	for _, cv := range vectors {
		k, err := cv.Digests.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k.Equal(built.Key) {
			foundTrue = true
			if cv.Unknowns != 1 {
				t.Errorf("expected exactly one recovered unknown, got %d", cv.Unknowns)
			}
			// The recovered digest must equal the true optional hash.
			for pos, idx := range cv.OwnIndices {
				if idx == -1 && !cv.Digests[pos].Equal(built.Vector[pos]) {
					t.Error("recovered hash differs from the true request hash")
				}
			}
		}
	}
	if !foundTrue {
		t.Fatal("true key not recovered")
	}

	// Rewrite B so that the unknown solves to a chosen value X. With γ = 1,
	// B = C[0][known]·h_known + C[0][unknown]·X.
	own := m.Vector()
	known, unknown := -1, -1
	for pos, opt := range built.Package.Optional {
		if !opt {
			continue
		}
		if own.Contains(built.Vector[pos]) {
			known = pos
		} else {
			unknown = pos
		}
	}
	if known < 0 || unknown < 0 {
		t.Fatalf("layout positions not found: known %d, unknown %d", known, unknown)
	}
	// A position's column of C is its rank among the optional positions.
	rank := func(pos int) int {
		r := 0
		for _, opt := range built.Package.Optional[:pos] {
			if opt {
				r++
			}
		}
		return r
	}
	hint := built.Package.Hint
	solveTo := func(x []byte) []CandidateVector {
		t.Helper()
		xe, err := field.ElementFromCanonicalBytes(x)
		if err != nil {
			t.Fatal(err)
		}
		hk := field.FromBytes(built.Vector[known][:])
		hint.B[0] = hint.C.At(0, rank(known)).Mul(hk).Add(hint.C.At(0, rank(unknown)).Mul(xe))
		vectors, diag, err := m.CandidateVectors(built.Package)
		if err != nil {
			t.Fatal(err)
		}
		if diag.HintSystemsSolved == 0 {
			t.Fatal("expected hint solving")
		}
		return vectors
	}
	recovered := func(vectors []CandidateVector) []crypt.Digest {
		var out []crypt.Digest
		for _, cv := range vectors {
			if cv.OwnIndices[unknown] == -1 {
				out = append(out, cv.Digests[unknown])
			}
		}
		return out
	}

	// X = 2^256 − 1 is the largest digest: the assignment is kept.
	largest := make([]byte, field.ElementSize)
	for i := 1; i < len(largest); i++ {
		largest[i] = 0xff
	}
	got := recovered(solveTo(largest))
	var allOnes crypt.Digest
	for i := range allOnes {
		allOnes[i] = 0xff
	}
	if len(got) != 1 || !got[0].Equal(allOnes) {
		t.Fatalf("X = 2^256 − 1: recovered %v, want the all-ones digest", got)
	}

	// X = 2^256 + 5 solves just as well but is no digest: discarded.
	over := make([]byte, field.ElementSize)
	over[0], over[len(over)-1] = 1, 5
	if got := recovered(solveTo(over)); len(got) != 0 {
		t.Fatalf("X = 2^256 + 5: recovered %v, want the assignment discarded", got)
	}
}

// A Matcher answers concurrent requests: the remainder vector mod
// DefaultPrime that they share is written only by NewMatcher and
// SetDynamicKey, so under -race this finds any per-request write to it.
func TestMatcherConcurrentRequests(t *testing.T) {
	m := mustMatcher(t, attr.NewProfile(
		attr.MustNew("sex", "male"),
		attr.MustNew("university", "columbia"),
		attr.MustNew("interest", "basketball"),
		attr.MustNew("interest", "chess"),
		attr.MustNew("interest", "cooking"),
	), MatcherConfig{AllowCollisionSkip: true})
	spec := allocSpec()
	atDefault := mustBuild(t, spec, BuildOptions{})
	spec.Prime = 13
	atOther := mustBuild(t, spec, BuildOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, built := range []*BuiltRequest{atDefault, atOther} {
					if !m.FastCheck(built.Package).Candidate {
						t.Error("fast check dismissed a matching user")
						return
					}
					res, _, err := m.TryUnseal(built.Package)
					if err != nil || !res.Matched || !res.ProfileKey.Equal(built.Key) {
						t.Errorf("TryUnseal: %+v, %v", res, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
