package attr

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewNormalizes(t *testing.T) {
	tests := []struct {
		name       string
		header     string
		value      string
		wantCanon  string
		wantHeader string
	}{
		{"simple", "Interest", "Basketball", "interest:basketball", "interest"},
		{"whitespace and punct", " Interest ", "Basket-Ball!!", "interest:basketball", "interest"},
		{"case folding", "SEX", "MALE", "sex:male", "sex"},
		{"plural", "interest", "computer games", "interest:computergame", "interest"},
		{"number to words", "birthyear", "1987", "birthyear:onethousandninehundredeightyseven", "birthyear"},
		{"abbreviation", "profession", "CS engr", "profession:computerscienceengineer", "profession"},
		{"diacritics", "place", "Café Zürich", "place:cafezurich", "place"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, err := New(tt.header, tt.value)
			if err != nil {
				t.Fatalf("New(%q, %q) error: %v", tt.header, tt.value, err)
			}
			if got := a.Canonical(); got != tt.wantCanon {
				t.Errorf("Canonical() = %q, want %q", got, tt.wantCanon)
			}
			if a.Header != tt.wantHeader {
				t.Errorf("Header = %q, want %q", a.Header, tt.wantHeader)
			}
		})
	}
}

func TestNewEmpty(t *testing.T) {
	if _, err := New("interest", "!!!"); err == nil {
		t.Fatal("New with punctuation-only value should fail")
	}
	if _, err := New("   ", "basketball"); err == nil {
		t.Fatal("New with empty header should fail")
	}
}

func TestParse(t *testing.T) {
	a, err := Parse("interest:Basket Ball")
	if err != nil {
		t.Fatalf("Parse error: %v", err)
	}
	if a.Canonical() != "interest:basketball" {
		t.Errorf("got %q", a.Canonical())
	}
	if _, err := Parse("no-separator"); err == nil {
		t.Error("Parse without separator should fail")
	}
}

// checkCanonicalsAgree fails t unless the attribute built by New, its copy
// held by a profile, a struct literal of the raw text and that literal's
// copy held by a profile all have the same canonical form.
func checkCanonicalsAgree(t *testing.T, header, value string) {
	t.Helper()
	a, err := New(header, value)
	if err != nil {
		return // nothing to compare: the text normalizes to nothing
	}
	lit := Attribute{Header: header, Value: value}
	forms := []string{
		a.Canonical(),
		NewProfile(a).Attributes()[0].Canonical(),
		lit.Canonical(),
		NewProfile(lit).Attributes()[0].Canonical(),
	}
	for _, f := range forms[1:] {
		if f != forms[0] {
			t.Fatalf("canonical forms of (%q, %q) disagree: %q", header, value, forms)
		}
	}
	if !a.Equal(lit) || !NewProfile(a).Contains(lit) {
		t.Fatalf("(%q, %q): constructed attribute and literal are not equivalent", header, value)
	}
}

// Property: the constructor, a profile and a literal agree on the canonical
// form of arbitrary text.
func TestCanonicalFormsAgreeProperty(t *testing.T) {
	for _, s := range []string{"10 s", "bus es", "m e"} {
		checkCanonicalsAgree(t, HeaderTag, s)
	}
	f := func(h, v string) bool {
		checkCanonicalsAgree(t, h, v)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReassignedFieldsDropTheCachedForm(t *testing.T) {
	a := MustNew("interest", "chess")
	a.Value = "Go"
	if got := a.Canonical(); got != "interest:go" {
		t.Errorf("Canonical after reassigning Value = %q, want interest:go", got)
	}
	if p := NewProfile(a); !p.Contains(MustNew("interest", "go")) || p.Len() != 1 {
		t.Errorf("profile of the reassigned attribute = %v", p)
	}
}

func TestEquivalentSpellingsHashIdentically(t *testing.T) {
	pairs := [][2]string{
		{"Basket Ball", "basketball"},
		{"Computer-Games", "computer game"},
		{"NEW YORK", "new  york"},
		{"engineers", "engineer"},
		{"7", "seven"},
		{"café", "cafe"},
	}
	for _, p := range pairs {
		a := MustNew("tag", p[0])
		b := MustNew("tag", p[1])
		if !a.Equal(b) {
			t.Errorf("expected %q and %q to normalize identically: %q vs %q",
				p[0], p[1], a.Canonical(), b.Canonical())
		}
	}
}

func TestProfileAddRemoveContains(t *testing.T) {
	p := NewProfile()
	a := MustNew("interest", "basketball")
	b := MustNew("interest", "chess")

	if !p.Add(a) {
		t.Error("first Add should report true")
	}
	if p.Add(a) {
		t.Error("duplicate Add should report false")
	}
	p.Add(b)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if !p.Contains(a) || !p.Contains(b) {
		t.Error("Contains should find both attributes")
	}
	if !p.Remove(a) {
		t.Error("Remove existing should report true")
	}
	if p.Remove(a) {
		t.Error("Remove missing should report false")
	}
	if p.Contains(a) {
		t.Error("removed attribute still present")
	}
}

func TestProfileSortedAndDeduplicated(t *testing.T) {
	p := NewProfile(
		MustNew("z", "last"),
		MustNew("a", "first"),
		MustNew("m", "middle"),
		MustNew("A", "First"), // duplicate of a:first under normalization
	)
	canon := p.Canonicals()
	if !sort.StringsAreSorted(canon) {
		t.Errorf("profile canonicals not sorted: %v", canon)
	}
	if len(canon) != 3 {
		t.Errorf("expected 3 unique attributes, got %d: %v", len(canon), canon)
	}
}

func TestProfileSetOperations(t *testing.T) {
	p, err := ParseProfile("tag:a", "tag:b", "tag:c", "tag:d")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseProfile("tag:c", "tag:d", "tag:e")
	if err != nil {
		t.Fatal(err)
	}
	inter := p.Intersection(q)
	if got := inter.Canonicals(); !reflect.DeepEqual(got, []string{"tag:c", "tag:d"}) {
		t.Errorf("Intersection = %v", got)
	}
	if p.IntersectionSize(q) != 2 {
		t.Errorf("IntersectionSize = %d, want 2", p.IntersectionSize(q))
	}
	union := p.Union(q)
	if union.Len() != 5 {
		t.Errorf("Union size = %d, want 5", union.Len())
	}
	if !inter.Subset(p) || !inter.Subset(q) {
		t.Error("intersection should be a subset of both")
	}
	if p.Subset(q) {
		t.Error("p is not a subset of q")
	}
	if got := p.Similarity(q); got != 0.5 {
		t.Errorf("Similarity = %v, want 0.5", got)
	}
}

func TestProfileCloneIsDeep(t *testing.T) {
	p, _ := ParseProfile("tag:a", "tag:b")
	c := p.Clone()
	c.Add(MustNew("tag", "c"))
	if p.Len() != 2 {
		t.Errorf("mutating clone changed original: len=%d", p.Len())
	}
	if !p.Equal(NewProfile(MustNew("tag", "a"), MustNew("tag", "b"))) {
		t.Error("original changed")
	}
}

func TestProfileFingerprintStable(t *testing.T) {
	p1 := NewProfile(MustNew("tag", "b"), MustNew("tag", "a"))
	p2 := NewProfile(MustNew("tag", "a"), MustNew("tag", "b"))
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("fingerprint should be order-independent")
	}
	if !strings.Contains(p1.String(), "tag:a") {
		t.Errorf("String() = %q", p1.String())
	}
}

// Property: adding attributes in any order yields the same sorted profile.
func TestProfileOrderIndependenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		attrs := make([]Attribute, n)
		for i := range attrs {
			attrs[i] = MustNew("tag", string(rune('a'+rng.Intn(26)))+string(rune('a'+rng.Intn(26))))
		}
		p1 := NewProfile(attrs...)
		shuffled := make([]Attribute, n)
		copy(shuffled, attrs)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		p2 := NewProfile(shuffled...)
		return p1.Equal(p2) && p1.Fingerprint() == p2.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: intersection size is symmetric and bounded by both profile sizes.
func TestIntersectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Profile {
			p := NewProfile()
			for i, n := 0, 1+rng.Intn(8); i < n; i++ {
				p.Add(MustNew("tag", string(rune('a'+rng.Intn(12)))))
			}
			return p
		}
		p, q := mk(), mk()
		ab, ba := p.IntersectionSize(q), q.IntersectionSize(p)
		if ab != ba {
			return false
		}
		return ab <= p.Len() && ab <= q.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
