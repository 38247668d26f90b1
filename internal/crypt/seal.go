package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// The Sealed Bottle protocols need two different sealing behaviours:
//
//   - Protocol 1 includes "public predefined confirmation information" in the
//     sealed message so that a candidate can verify locally whether its
//     candidate key decrypted the message correctly. We realize this with
//     AES-256-CTR plus an HMAC-SHA-256 confirmation tag (encrypt-then-MAC),
//     which plays exactly the role of the paper's confirmation string.
//
//   - Protocols 2 and 3 deliberately omit any confirmation so that a
//     candidate (who might hold a stolen attribute dictionary) cannot test
//     guesses offline. We realize this with plain AES-256-CTR: decryption
//     under a wrong key silently yields garbage that is indistinguishable
//     from a correct decryption.
//
// Both forms use a fresh random nonce per message and never reveal the
// profile key or any attribute hash on the wire.

const (
	// NonceSize is the AES-CTR nonce size used by both sealing modes.
	NonceSize = aes.BlockSize
	// TagSize is the HMAC-SHA-256 confirmation tag size of the verifiable mode.
	TagSize = sha256.Size
	// VerifiableOverhead is the ciphertext expansion of SealVerifiable.
	VerifiableOverhead = NonceSize + TagSize
	// OpaqueOverhead is the ciphertext expansion of SealOpaque.
	OpaqueOverhead = NonceSize
)

// ErrDecryptFailed indicates that a verifiable seal's confirmation tag did
// not match, i.e. the key is wrong or the ciphertext was tampered with.
var ErrDecryptFailed = errors.New("crypt: decryption failed (wrong key or corrupted ciphertext)")

func newCTR(key Key, nonce []byte) (cipher.Stream, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypt: building AES cipher: %w", err)
	}
	return cipher.NewCTR(block, nonce), nil
}

// confirmationKeyLabel is prefixed to the sealing key to derive the MAC key,
// so the same profile key can serve both encryption and confirmation without
// interference.
const confirmationKeyLabel = "sealedbottle/confirmation-key/v1"

// confirmationTag writes HMAC-SHA-256(mk, nonce || ciphertext) into tag,
// where mk = SHA-256(confirmationKeyLabel || key). The HMAC of RFC 2104 is
// written out: mk is shorter than a SHA-256 block, so the padded key is mk
// followed by zeros, XORed with 0x36 for the inner hash and 0x5c for the
// outer one. Every buffer is the caller's or on the stack, and one SHA-256
// state serves both hashes.
func confirmationTag(tag *[TagSize]byte, key Key, nonce, ciphertext []byte) {
	var in [len(confirmationKeyLabel) + KeySize]byte
	copy(in[:], confirmationKeyLabel)
	copy(in[len(confirmationKeyLabel):], key[:])
	mk := sha256.Sum256(in[:])
	var pad [sha256.BlockSize]byte
	copy(pad[:], mk[:])
	for i := range pad {
		pad[i] ^= 0x36
	}
	h := sha256.New()
	h.Write(pad[:])
	h.Write(nonce)
	h.Write(ciphertext)
	h.Sum(tag[:0])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	h.Reset()
	h.Write(pad[:])
	h.Write(tag[:])
	h.Sum(tag[:0])
}

// SealVerifiable encrypts plaintext under key with confirmation information
// attached (Protocol 1 style). Output layout: nonce || ciphertext || tag.
func SealVerifiable(rng io.Reader, key Key, plaintext []byte) ([]byte, error) {
	out := make([]byte, NonceSize+len(plaintext)+TagSize)
	nonce, ciphertext := out[:NonceSize], out[NonceSize:NonceSize+len(plaintext)]
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, fmt.Errorf("crypt: generating nonce: %w", err)
	}
	stream, err := newCTR(key, nonce)
	if err != nil {
		return nil, err
	}
	stream.XORKeyStream(ciphertext, plaintext)
	confirmationTag((*[TagSize]byte)(out[NonceSize+len(plaintext):]), key, nonce, ciphertext)
	return out, nil
}

// OpenVerifiable decrypts a SealVerifiable message, verifying the
// confirmation tag first. A wrong key returns ErrDecryptFailed.
func OpenVerifiable(key Key, sealed []byte) ([]byte, error) {
	if len(sealed) < VerifiableOverhead {
		return nil, fmt.Errorf("crypt: sealed message too short (%d bytes)", len(sealed))
	}
	nonce := sealed[:NonceSize]
	ciphertext := sealed[NonceSize : len(sealed)-TagSize]
	var want [TagSize]byte
	confirmationTag(&want, key, nonce, ciphertext)
	if !hmac.Equal(sealed[len(sealed)-TagSize:], want[:]) {
		return nil, ErrDecryptFailed
	}
	stream, err := newCTR(key, nonce)
	if err != nil {
		return nil, err
	}
	plaintext := make([]byte, len(ciphertext))
	stream.XORKeyStream(plaintext, ciphertext)
	return plaintext, nil
}

// SealOpaque encrypts plaintext under key with no confirmation information
// (Protocol 2/3 style). Output layout: nonce || ciphertext.
func SealOpaque(rng io.Reader, key Key, plaintext []byte) ([]byte, error) {
	out := make([]byte, NonceSize+len(plaintext))
	nonce := out[:NonceSize]
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, fmt.Errorf("crypt: generating nonce: %w", err)
	}
	stream, err := newCTR(key, nonce)
	if err != nil {
		return nil, err
	}
	stream.XORKeyStream(out[NonceSize:], plaintext)
	return out, nil
}

// OpenOpaque decrypts a SealOpaque message. It always succeeds structurally:
// with the wrong key the returned bytes are uniformly-looking garbage, which
// is precisely the property Protocols 2 and 3 rely on.
func OpenOpaque(key Key, sealed []byte) ([]byte, error) {
	if len(sealed) < OpaqueOverhead {
		return nil, fmt.Errorf("crypt: sealed message too short (%d bytes)", len(sealed))
	}
	stream, err := newCTR(key, sealed[:NonceSize])
	if err != nil {
		return nil, err
	}
	plaintext := make([]byte, len(sealed)-NonceSize)
	stream.XORKeyStream(plaintext, sealed[NonceSize:])
	return plaintext, nil
}

// NewSessionKey draws a fresh 256-bit session key (the protocols' random x
// and y values).
func NewSessionKey(rng io.Reader) (Key, error) {
	var k Key
	if _, err := io.ReadFull(rng, k[:]); err != nil {
		return Key{}, fmt.Errorf("crypt: generating session key: %w", err)
	}
	return k, nil
}

// CombineKeys derives the pairwise channel key from the initiator's x and the
// matching user's y. The paper writes the combined key as "x + y"; we derive
// it as SHA-256(x || y) so the combination is a uniformly distributed AES key
// regardless of the algebraic structure of x and y.
func CombineKeys(x, y Key) Key {
	h := sha256.New()
	h.Write([]byte("sealedbottle/channel-key/v1"))
	h.Write(x[:])
	h.Write(y[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// DefaultRand exposes the cryptographically secure source used by production
// call sites; tests may substitute a deterministic reader.
func DefaultRand() io.Reader { return rand.Reader }
