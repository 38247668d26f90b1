package crypt

import (
	"strings"
	"testing"
	"testing/quick"

	"sealedbottle/internal/attr"
)

func sampleProfile(t *testing.T) *attr.Profile {
	t.Helper()
	return attr.NewProfile(
		attr.MustNew("sex", "male"),
		attr.MustNew("university", "columbia"),
		attr.MustNew("interest", "basketball"),
		attr.MustNew("interest", "computer games"),
		attr.MustNew("profession", "engineer"),
	)
}

func TestVectorFromProfile(t *testing.T) {
	p := sampleProfile(t)
	v, err := VectorFromProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != p.Len() {
		t.Fatalf("vector length %d, want %d", v.Len(), p.Len())
	}
	// Each entry must be the hash of the corresponding sorted canonical.
	for i, c := range p.Canonicals() {
		if !v[i].Equal(HashAttribute(c)) {
			t.Errorf("entry %d does not match hash of %q", i, c)
		}
	}
	if _, err := VectorFromProfile(attr.NewProfile()); err == nil {
		t.Error("empty profile should fail")
	}
}

func TestVectorOrderIndependentOfInsertionOrder(t *testing.T) {
	p1 := attr.NewProfile(attr.MustNew("tag", "a"), attr.MustNew("tag", "b"), attr.MustNew("tag", "c"))
	p2 := attr.NewProfile(attr.MustNew("tag", "c"), attr.MustNew("tag", "a"), attr.MustNew("tag", "b"))
	v1, _ := VectorFromProfile(p1)
	v2, _ := VectorFromProfile(p2)
	if !v1.Equal(v2) {
		t.Error("profile vectors must not depend on attribute insertion order")
	}
	k1, _ := v1.Key()
	k2, _ := v2.Key()
	if !k1.Equal(k2) {
		t.Error("profile keys must not depend on attribute insertion order")
	}
}

func TestVectorFromProfileBound(t *testing.T) {
	p := sampleProfile(t)
	plain, _ := VectorFromProfile(p)
	bound, err := VectorFromProfileBound(p, []byte("dynamic-location-key"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Equal(bound) {
		t.Error("bound vector must differ from plain vector")
	}
	// Empty dynamic key degrades to plain hashing.
	degraded, _ := VectorFromProfileBound(p, nil)
	if !degraded.Equal(plain) {
		t.Error("nil dynamic key should equal plain hashing")
	}
	if _, err := VectorFromProfileBound(attr.NewProfile(), []byte("k")); err == nil {
		t.Error("empty profile should fail")
	}
}

func TestVectorFromCanonicals(t *testing.T) {
	v, err := VectorFromCanonicals([]string{"tag:a", "tag:b"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 || !v[0].Equal(HashAttribute("tag:a")) {
		t.Error("unexpected vector content")
	}
	if _, err := VectorFromCanonicals(nil); err == nil {
		t.Error("empty canonical list should fail")
	}
}

func TestKeyDistinctForDifferentProfiles(t *testing.T) {
	p := sampleProfile(t)
	q := p.Clone()
	q.Add(attr.MustNew("interest", "chess"))
	vp, _ := VectorFromProfile(p)
	vq, _ := VectorFromProfile(q)
	kp, err := vp.Key()
	if err != nil {
		t.Fatal(err)
	}
	kq, err := vq.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kp.Equal(kq) {
		t.Error("different profiles should produce different keys")
	}
	if _, err := (ProfileVector{}).Key(); err == nil {
		t.Error("empty vector key should fail")
	}
}

func TestRemaindersMatchDigestMod(t *testing.T) {
	p := sampleProfile(t)
	v, _ := VectorFromProfile(p)
	const prime = 11
	r := v.Remainders(prime)
	if len(r) != v.Len() {
		t.Fatalf("remainder length %d", len(r))
	}
	for i := range r {
		if r[i] != v[i].Mod(prime) {
			t.Errorf("remainder %d mismatch", i)
		}
		if r[i] >= prime {
			t.Errorf("remainder %d out of range", r[i])
		}
	}
}

func TestVectorCloneAndContains(t *testing.T) {
	p := sampleProfile(t)
	v, _ := VectorFromProfile(p)
	c := v.Clone()
	c[0] = Digest{}
	if v[0].IsZero() {
		t.Error("Clone must be independent")
	}
	if !v.Contains(HashAttribute("sex:male")) {
		t.Error("Contains should find an owned attribute hash")
	}
	if v.Contains(HashAttribute("sex:unknown")) {
		t.Error("Contains should not find a foreign hash")
	}
	if v.Equal(ProfileVector{}) {
		t.Error("different lengths must not be equal")
	}
}

func TestKeyHelpers(t *testing.T) {
	var zero Key
	if !zero.IsZero() {
		t.Error("zero key should report IsZero")
	}
	k, err := KeyFromBytes(make([]byte, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	if !k.IsZero() {
		t.Error("zero bytes should yield zero key")
	}
	if _, err := KeyFromBytes(make([]byte, 16)); err == nil {
		t.Error("short key should fail")
	}
	d := HashAttribute("x")
	if KeyFromDigest(d).IsZero() {
		t.Error("digest key should not be zero")
	}
	if len(k.String()) == 0 {
		t.Error("String should not be empty")
	}
}

// Property: two profiles have equal keys iff they have equal attribute sets.
func TestKeyCollisionFreeProperty(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		mk := func(seed uint8) *attr.Profile {
			p := attr.NewProfile()
			for i := 0; i < 3; i++ {
				p.Add(attr.MustNew("tag", string(rune('a'+(seed>>(2*i))%4))))
			}
			return p
		}
		pa, pb := mk(seedA), mk(seedB)
		va, _ := VectorFromProfile(pa)
		vb, _ := VectorFromProfile(pb)
		ka, _ := va.Key()
		kb, _ := vb.Key()
		return ka.Equal(kb) == pa.Equal(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The vector builders hash through one reused buffer; each element must still
// be exactly HashAttribute or HashAttributeBound of its attribute, also for an
// attribute too long for the buffer's stack space.
func TestVectorMatchesPerAttributeHashes(t *testing.T) {
	p := attr.NewProfile(
		attr.MustNew("interest", "chess"),
		attr.MustNew("interest", strings.Repeat("long value ", 20)),
		attr.MustNew("sex", "female"),
	)
	canon := p.Canonicals()
	key := []byte("dynamic-location-key")
	plain, err := VectorFromProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := VectorFromProfileBound(p, key)
	if err != nil {
		t.Fatal(err)
	}
	fromCanon, err := VectorFromCanonicals(canon)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range canon {
		if want := HashAttribute(c); plain[i] != want || fromCanon[i] != want {
			t.Errorf("position %d: plain %v / %v, want %v", i, plain[i], fromCanon[i], want)
		}
		if want := HashAttributeBound(c, key); bound[i] != want {
			t.Errorf("position %d: bound %v, want %v", i, bound[i], want)
		}
	}
}
