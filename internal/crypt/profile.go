package crypt

import (
	"crypto/sha256"
	"errors"

	"sealedbottle/internal/attr"
)

// ProfileVector is the sorted vector of attribute hashes
// H_k = [h_k^1, ..., h_k^{m_k}]^T (Eq. 2). The ordering is the lexicographic
// order of the canonical attribute strings, which both the initiator and all
// relays can reproduce independently.
type ProfileVector []Digest

// ErrEmptyProfile is returned when a key or vector is requested for a profile
// with no attributes.
var ErrEmptyProfile = errors.New("crypt: profile has no attributes")

// VectorFromProfile hashes every attribute of the (already sorted) profile.
func VectorFromProfile(p *attr.Profile) (ProfileVector, error) {
	return VectorFromProfileBound(p, nil)
}

// VectorFromProfileBound hashes every attribute bound to the dynamic key
// (Section III-D3). Passing a nil or empty dynamic key degrades to plain
// attribute hashing.
func VectorFromProfileBound(p *attr.Profile, dynamicKey []byte) (ProfileVector, error) {
	if p.Len() == 0 {
		return nil, ErrEmptyProfile
	}
	return vectorOf(p.Canonicals(), dynamicKey), nil
}

// VectorFromCanonicals hashes a pre-normalized, pre-sorted list of canonical
// attribute strings. Callers are responsible for the ordering invariant.
func VectorFromCanonicals(canonicals []string) (ProfileVector, error) {
	if len(canonicals) == 0 {
		return nil, ErrEmptyProfile
	}
	return vectorOf(canonicals, nil), nil
}

// vectorOf hashes each canonical form as HashAttribute does, or as
// HashAttributeBound does when dynamicKey is non-empty. Every attribute's
// hash input is built in one buffer, on the stack unless an attribute is
// long.
func vectorOf(canonicals []string, dynamicKey []byte) ProfileVector {
	v := make(ProfileVector, len(canonicals))
	var stack [128]byte
	buf := stack[:0]
	for i, c := range canonicals {
		buf = append(buf[:0], c...)
		if len(dynamicKey) > 0 {
			buf = append(buf, 0x00) // HashAttributeBound's domain separator
			buf = append(buf, dynamicKey...)
		}
		v[i] = sha256.Sum256(buf)
	}
	return v
}

// Len returns the number of attribute hashes m_k.
func (v ProfileVector) Len() int { return len(v) }

// Clone returns a copy of the vector.
func (v ProfileVector) Clone() ProfileVector {
	out := make(ProfileVector, len(v))
	copy(out, v)
	return out
}

// Equal reports element-wise equality.
func (v ProfileVector) Equal(o ProfileVector) bool {
	if len(v) != len(o) {
		return false
	}
	eq := true
	for i := range v {
		if !v[i].Equal(o[i]) {
			eq = false
		}
	}
	return eq
}

// Contains reports whether the vector contains the given attribute hash.
func (v ProfileVector) Contains(d Digest) bool {
	for _, h := range v {
		if h.Equal(d) {
			return true
		}
	}
	return false
}

// Key derives the profile key K_k = H(H_k) (Eq. 3): the SHA-256 hash of the
// concatenated attribute hashes, used directly as an AES-256 key.
func (v ProfileVector) Key() (Key, error) {
	if len(v) == 0 {
		return Key{}, ErrEmptyProfile
	}
	h := sha256.New()
	for _, d := range v {
		h.Write(d[:])
	}
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// Remainders returns the remainder vector R_k = [h mod p, ...] (Eq. 4).
func (v ProfileVector) Remainders(p uint32) []uint32 {
	out := make([]uint32, len(v))
	for i, d := range v {
		out[i] = d.Mod(p)
	}
	return out
}

// KeySize is the AES-256 key size in bytes.
const KeySize = 32

// Key is a 256-bit symmetric key — either a profile key K = H(H_k) or a
// session key (the random x and y values of the protocols).
type Key [KeySize]byte

// KeyFromBytes copies a 32-byte slice into a Key.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, errors.New("crypt: key must be 32 bytes")
	}
	copy(k[:], b)
	return k, nil
}

// KeyFromDigest reinterprets a digest as a key.
func KeyFromDigest(d Digest) Key { return Key(d) }

// Equal compares two keys in constant time.
func (k Key) Equal(o Key) bool {
	return Digest(k).Equal(Digest(o))
}

// IsZero reports whether the key is all zeros.
func (k Key) IsZero() bool { return Digest(k).IsZero() }

// String renders a shortened non-sensitive fingerprint of the key (the hash
// of the key, truncated), never the key material itself.
func (k Key) String() string {
	fp := sha256.Sum256(k[:])
	return "key:" + Digest(fp).String()
}
