// Package attr models user profiles for the Sealed Bottle mechanism.
//
// A profile is a set of attributes. Each attribute has a header naming its
// category ("interest", "profession", "university", ...) and a value field
// with one value ("basketball"). The package implements the paper's profile
// normalization pipeline (Section III-B), so that two attributes that humans
// would consider equivalent ("Basket Ball", "basketball") hash to the same
// SHA-256 digest, as well as the attribute/profile entropy definitions used
// by Protocol 3 (Definitions 4-6) and the two suggested policies for picking
// the entropy-leakage bound ϕ.
package attr

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Separator joins the header and value of an attribute into its canonical
// textual form "header:value". The canonical form is what gets hashed.
const Separator = ":"

// Common attribute headers used throughout the examples and the synthetic
// Tencent-Weibo-like corpus. Headers are free-form strings; these constants
// only make call sites more readable.
const (
	HeaderTag        = "tag"
	HeaderKeyword    = "keyword"
	HeaderInterest   = "interest"
	HeaderProfession = "profession"
	HeaderUniversity = "university"
	HeaderSex        = "sex"
	HeaderBirthYear  = "birthyear"
	HeaderLocation   = "location"
	HeaderGroup      = "group"
	HeaderContact    = "contact"
	HeaderPlace      = "place"
)

// Attribute is a single profile entry: a category header plus a value.
//
// New, Parse and the Profile methods return attributes whose fields are
// normalized to the fixed point of Normalize and which carry their canonical
// "header:value" form, computed once. A struct literal carries none, and
// neither does an attribute whose Header or Value was reassigned: such an
// attribute is normalized again on each call to Canonical, Equal or Less, so
// it behaves the same, only slower. The zero value is not a valid attribute.
//
// Because of the carried form, == on two attributes is not equivalence: a
// literal and the attribute New builds from the same text compare unequal.
// Use Equal.
type Attribute struct {
	// Header names the attribute category, e.g. "interest".
	Header string
	// Value is the attribute value, e.g. "basketball".
	Value string

	// canon is Header + Separator + Value, set by canonicalize; Header and
	// Value are substrings of it.
	canon string
}

// ErrEmptyAttribute is returned when an attribute normalizes to nothing,
// e.g. its value was only punctuation or whitespace.
var ErrEmptyAttribute = errors.New("attr: attribute is empty after normalization")

// New builds a normalized attribute from a raw header and value, applying the
// full normalization pipeline of Section III-B to both fields.
func New(header, value string) (Attribute, error) {
	n := Normalize(header)
	v := Normalize(value)
	if n == "" || v == "" {
		return Attribute{}, fmt.Errorf("%w: header=%q value=%q", ErrEmptyAttribute, header, value)
	}
	return canonicalize(n, v), nil
}

// canonicalize builds the attribute for an already normalized header and
// value, with its canonical form stored in one string.
func canonicalize(header, value string) Attribute {
	canon := header + Separator + value
	return Attribute{Header: canon[:len(header)], Value: canon[len(header)+len(Separator):], canon: canon}
}

// normalized returns a itself if it still carries the canonical form of its
// fields, or else the normalized attribute that carries it. The comparisons
// are cheap when they hold, because the fields then alias canon.
func (a Attribute) normalized() Attribute {
	n := len(a.Header)
	if len(a.canon) == n+len(Separator)+len(a.Value) &&
		a.canon[:n] == a.Header && a.canon[n+len(Separator):] == a.Value {
		return a
	}
	return canonicalize(Normalize(a.Header), Normalize(a.Value))
}

// MustNew is New but panics on error. It is intended for tests, examples and
// static tables where the inputs are compile-time constants.
func MustNew(header, value string) Attribute {
	a, err := New(header, value)
	if err != nil {
		panic(err)
	}
	return a
}

// Parse parses the canonical "header:value" form. The value may itself
// contain the separator; only the first occurrence splits header from value.
func Parse(s string) (Attribute, error) {
	idx := strings.Index(s, Separator)
	if idx < 0 {
		return Attribute{}, fmt.Errorf("attr: %q is not in header%svalue form", s, Separator)
	}
	return New(s[:idx], s[idx+len(Separator):])
}

// Canonical returns the canonical textual form "header:value" after
// normalizing both fields. Canonical strings are the unit that gets hashed
// into the profile vector.
func (a Attribute) Canonical() string { return a.normalized().canon }

// String implements fmt.Stringer using the canonical form.
func (a Attribute) String() string { return a.Canonical() }

// Equal reports whether two attributes are equivalent under normalization.
func (a Attribute) Equal(b Attribute) bool { return a.Canonical() == b.Canonical() }

// Less orders attributes by canonical form; used to sort profiles so that the
// initiator and candidates derive identical profile vectors.
func (a Attribute) Less(b Attribute) bool { return a.Canonical() < b.Canonical() }

// Profile is a user's attribute set A_k = {a_k^1, ..., a_k^{m_k}}.
//
// Profiles keep their attributes sorted by canonical form and free of
// duplicates; the exported constructors maintain this invariant.
type Profile struct {
	attrs []Attribute
}

// NewProfile builds a profile from the given attributes, normalizing,
// de-duplicating and sorting them.
func NewProfile(attrs ...Attribute) *Profile {
	p := &Profile{attrs: make([]Attribute, 0, len(attrs))}
	for _, a := range attrs {
		p.Add(a)
	}
	return p
}

// ParseProfile builds a profile from canonical "header:value" strings.
func ParseProfile(canonical ...string) (*Profile, error) {
	p := &Profile{}
	for _, s := range canonical {
		a, err := Parse(s)
		if err != nil {
			return nil, err
		}
		p.Add(a)
	}
	return p, nil
}

// Add inserts an attribute, keeping the profile sorted and duplicate-free.
// It reports whether the attribute was newly added.
func (p *Profile) Add(a Attribute) bool {
	a = a.normalized()
	i, found := p.search(a.canon)
	if found {
		return false
	}
	p.attrs = slices.Insert(p.attrs, i, a)
	return true
}

// Remove deletes an attribute if present and reports whether it was removed.
func (p *Profile) Remove(a Attribute) bool {
	i, found := p.search(a.Canonical())
	if found {
		p.attrs = slices.Delete(p.attrs, i, i+1)
	}
	return found
}

// Contains reports whether the profile owns an attribute equivalent to a.
func (p *Profile) Contains(a Attribute) bool {
	_, found := p.search(a.Canonical())
	return found
}

// search finds the position of canonical form c among the sorted attributes.
// Every attribute a profile holds carries its canonical form.
func (p *Profile) search(c string) (int, bool) {
	return slices.BinarySearchFunc(p.attrs, c, func(a Attribute, c string) int {
		return strings.Compare(a.canon, c)
	})
}

// Len returns the number of attributes m_k.
func (p *Profile) Len() int { return len(p.attrs) }

// Attributes returns a copy of the sorted attribute slice.
func (p *Profile) Attributes() []Attribute {
	out := make([]Attribute, len(p.attrs))
	copy(out, p.attrs)
	return out
}

// Canonicals returns the sorted canonical strings of all attributes. This is
// the exact sequence that is hashed into the profile vector.
func (p *Profile) Canonicals() []string {
	out := make([]string, len(p.attrs))
	for i, a := range p.attrs {
		out[i] = a.canon
	}
	return out
}

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	return &Profile{attrs: p.Attributes()}
}

// Intersection returns the attributes present in both profiles.
func (p *Profile) Intersection(q *Profile) *Profile {
	out := &Profile{}
	for _, a := range p.attrs {
		if q.Contains(a) {
			// p is sorted and duplicate-free, so its subsequence is too.
			out.attrs = append(out.attrs, a)
		}
	}
	return out
}

// IntersectionSize returns |A_p ∩ A_q| without materializing the intersection.
func (p *Profile) IntersectionSize(q *Profile) int {
	n := 0
	for _, a := range p.attrs {
		if q.Contains(a) {
			n++
		}
	}
	return n
}

// Union returns the union of the two attribute sets.
func (p *Profile) Union(q *Profile) *Profile {
	out := p.Clone()
	for _, a := range q.attrs {
		out.Add(a)
	}
	return out
}

// Subset reports whether every attribute of p is owned by q.
func (p *Profile) Subset(q *Profile) bool {
	for _, a := range p.attrs {
		if !q.Contains(a) {
			return false
		}
	}
	return true
}

// Equal reports whether two profiles contain exactly the same attributes.
func (p *Profile) Equal(q *Profile) bool {
	if p.Len() != q.Len() {
		return false
	}
	return p.Subset(q)
}

// Fingerprint returns a stable textual fingerprint of the profile: the sorted
// canonical attributes joined by newlines. Per the paper's observation, more
// than 90% of users have a unique fingerprint, so it can serve as an identity
// proxy in the corpus statistics.
func (p *Profile) Fingerprint() string {
	return strings.Join(p.Canonicals(), "\n")
}

// String implements fmt.Stringer with a compact single-line rendering.
func (p *Profile) String() string {
	return "{" + strings.Join(p.Canonicals(), ", ") + "}"
}

// Similarity returns |A_p ∩ A_q| / |A_p|, the fraction of p's attributes that
// q owns. This matches the paper's threshold θ = (α+β)/m_t when p is the
// request profile.
func (p *Profile) Similarity(q *Profile) float64 {
	if p.Len() == 0 {
		return 0
	}
	return float64(p.IntersectionSize(q)) / float64(p.Len())
}
