// Package crypt provides the symmetric-cryptography substrate of the Sealed
// Bottle mechanism: SHA-256 attribute hashing, profile vectors and profile
// keys (Section III-B of the paper), remainder computation against a small
// prime (Section III-C1), and the two AES-256 sealing modes used by the
// protocols — a verifiable mode carrying confirmation information (Protocol
// 1) and an opaque mode in which a decryptor cannot tell whether its key was
// correct (Protocols 2 and 3).
package crypt

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/bits"
)

// DigestSize is the size of an attribute hash in bytes (SHA-256).
const DigestSize = sha256.Size

// Digest is the SHA-256 hash of a normalized attribute (h_k^i = H(a_k^i)).
type Digest [DigestSize]byte

// HashAttribute hashes the canonical form of an attribute.
func HashAttribute(canonical string) Digest {
	return sha256.Sum256([]byte(canonical))
}

// HashAttributeBound hashes an attribute canonical form bound to a dynamic
// key (Section III-D3): H(attribute || dynamicKey). Binding static attributes
// to the holder's current location key makes externally-built dictionaries
// useless, because the same attribute hashes differently at every location.
func HashAttributeBound(canonical string, dynamicKey []byte) Digest {
	h := sha256.New()
	h.Write([]byte(canonical))
	h.Write([]byte{0x00}) // domain separator between attribute text and key
	h.Write(dynamicKey)
	var d Digest
	h.Sum(d[:0])
	return d
}

// HashBytes hashes an arbitrary byte string, used for deriving profile keys
// and dynamic keys.
func HashBytes(b []byte) Digest {
	return sha256.Sum256(b)
}

// Mod returns the digest interpreted as a big-endian unsigned integer reduced
// modulo the small prime p (Theorem 1's remainder r = h mod p).
func (d Digest) Mod(p uint32) uint32 {
	if p == 0 {
		return 0
	}
	// Horner evaluation over the four big-endian 64-bit words: each step
	// reduces the 128-bit value rem·2^64 + w with one hardware division.
	// This is the "Mod p" basic operation the paper benchmarks in Table IV.
	var rem uint64
	for i := 0; i < DigestSize; i += 8 {
		rem = bits.Rem64(rem, binary.BigEndian.Uint64(d[i:]), uint64(p))
	}
	return uint32(rem)
}

// Big returns the digest as a big integer, for the baselines' modular
// arithmetic.
func (d Digest) Big() *big.Int {
	return new(big.Int).SetBytes(d[:])
}

// Equal compares two digests in constant time.
func (d Digest) Equal(o Digest) bool {
	return subtle.ConstantTimeCompare(d[:], o[:]) == 1
}

// IsZero reports whether the digest is all zero bytes (the sentinel used for
// "unknown" positions in candidate profile vectors).
func (d Digest) IsZero() bool {
	var zero Digest
	return subtle.ConstantTimeCompare(d[:], zero[:]) == 1
}

// String renders a shortened hexadecimal form for logs and debugging.
func (d Digest) String() string {
	h := hex.EncodeToString(d[:])
	return h[:8] + "…" + h[len(h)-8:]
}

// DigestFromBytes copies a 32-byte slice into a Digest.
func DigestFromBytes(b []byte) (Digest, error) {
	var d Digest
	if len(b) != DigestSize {
		return d, fmt.Errorf("crypt: digest must be %d bytes, got %d", DigestSize, len(b))
	}
	copy(d[:], b)
	return d, nil
}

// Uint64 folds the digest into a uint64, handy for deterministic bucketing in
// the corpus statistics (never used for security decisions).
func (d Digest) Uint64() uint64 {
	return binary.BigEndian.Uint64(d[:8])
}
