package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sealedbottle/internal/attr"
)

func TestResidueSetBasics(t *testing.T) {
	s := NewResidueSet(11, []uint32{0, 3, 7, 14}) // 14 mod 11 = 3
	if !s.Valid() {
		t.Fatal("expected valid set")
	}
	if got := s.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	for _, r := range []uint32{0, 3, 7, 14, 18} {
		if !s.Contains(r) {
			t.Errorf("Contains(%d) = false, want true", r)
		}
	}
	for _, r := range []uint32{1, 2, 4, 10} {
		if s.Contains(r) {
			t.Errorf("Contains(%d) = true, want false", r)
		}
	}
}

func TestResidueSetValid(t *testing.T) {
	cases := []struct {
		name string
		s    ResidueSet
		want bool
	}{
		{"zero", ResidueSet{}, false},
		{"composite prime", NewResidueSet(9, nil), false},
		{"even", NewResidueSet(2, nil), false},
		{"ok small", NewResidueSet(11, []uint32{1}), true},
		{"ok large", NewResidueSet(127, []uint32{126}), true},
		{"short bitmap", ResidueSet{Prime: 127, Bits: []uint64{0}}, false},
		{"high bits set", ResidueSet{Prime: 11, Bits: []uint64{1 << 20}}, false},
	}
	for _, tc := range cases {
		if got := tc.s.Valid(); got != tc.want {
			t.Errorf("%s: Valid = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPrefilterMatchAgreesWithFastCheck is the load-bearing property of the
// broker's prefilter: for any request and any profile, the residue presence
// screen must agree exactly with Matcher.FastCheck's candidacy verdict.
func TestPrefilterMatchAgreesWithFastCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := make([]attr.Attribute, 24)
	for i := range universe {
		universe[i] = attr.MustNew("interest", fmt.Sprintf("u%02d", i))
	}
	pick := func(n int) []attr.Attribute {
		perm := rng.Perm(len(universe))
		out := make([]attr.Attribute, n)
		for i := range out {
			out[i] = universe[perm[i]]
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		nNec := rng.Intn(3)
		nOpt := 1 + rng.Intn(5)
		attrs := pick(nNec + nOpt)
		spec := RequestSpec{
			Necessary:   attrs[:nNec],
			Optional:    attrs[nNec:],
			MinOptional: 1 + rng.Intn(nOpt),
		}
		built, err := BuildRequest(spec, BuildOptions{Rand: rng})
		if err != nil {
			t.Fatalf("trial %d: BuildRequest: %v", trial, err)
		}
		profile := attr.NewProfile(pick(3 + rng.Intn(6))...)
		matcher, err := NewMatcher(profile, MatcherConfig{})
		if err != nil {
			t.Fatalf("trial %d: NewMatcher: %v", trial, err)
		}
		pkg := built.Package
		want := matcher.FastCheck(pkg).Candidate
		got := pkg.PrefilterMatch(matcher.ResidueSet(pkg.Prime))
		if got != want {
			t.Fatalf("trial %d: PrefilterMatch = %v, FastCheck.Candidate = %v (spec %+v)",
				trial, got, want, spec)
		}
	}
}

func TestPrefilterMatchPrimeMismatch(t *testing.T) {
	built, err := BuildRequest(PerfectMatch(attr.MustNew("a", "b")), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := NewResidueSet(13, []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if built.Package.PrefilterMatch(full) {
		t.Fatal("residue set with a different prime must never match")
	}
}

func TestMergePrimes(t *testing.T) {
	got := MergePrimes(13, 11, 13, 3, 11)
	want := []uint32{3, 11, 13}
	if len(got) != len(want) {
		t.Fatalf("MergePrimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergePrimes = %v, want %v", got, want)
		}
	}
}
