package crypt

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// referenceTag is the confirmation tag computed with crypto/hmac: the
// definition the written-out confirmationTag must reproduce byte for byte.
func referenceTag(key Key, nonce, ciphertext []byte) []byte {
	mk := sha256.Sum256(append([]byte(confirmationKeyLabel), key[:]...))
	mac := hmac.New(sha256.New, mk[:])
	mac.Write(nonce)
	mac.Write(ciphertext)
	return mac.Sum(nil)
}

// The tag of a fixed key, nonce and ciphertext. The expected bytes pin the
// seal format: a change to the tag would make every stored Protocol 1 bottle
// and every reply unopenable.
func TestConfirmationTagKnownAnswer(t *testing.T) {
	var key Key
	for i := range key {
		key[i] = byte(i)
	}
	nonce := make([]byte, NonceSize)
	for i := range nonce {
		nonce[i] = 0xa0 + byte(i)
	}
	ciphertext := []byte("sealed bottle confirmation known-answer ciphertext")
	var tag [TagSize]byte
	confirmationTag(&tag, key, nonce, ciphertext)
	const want = "a2e2765c3093de1e17263bc25484fe6feb8eeef36b0f87935d7fd655a34fe32a"
	if got := hex.EncodeToString(tag[:]); got != want {
		t.Fatalf("confirmation tag %s, want %s", got, want)
	}
}

// TestConfirmationTagMatchesHMAC holds the written-out HMAC against
// crypto/hmac for every ciphertext length 0–300, which crosses the SHA-256
// block boundary several times on both sides of the nonce.
func TestConfirmationTagMatchesHMAC(t *testing.T) {
	buf := make([]byte, NonceSize+300)
	if _, err := rand.Read(buf); err != nil {
		t.Fatal(err)
	}
	nonce, data := buf[:NonceSize], buf[NonceSize:]
	for n := 0; n <= len(data); n++ {
		key := testKey(t, byte(n))
		var tag [TagSize]byte
		confirmationTag(&tag, key, nonce, data[:n])
		if want := referenceTag(key, nonce, data[:n]); !bytes.Equal(tag[:], want) {
			t.Fatalf("ciphertext length %d: tag %x, crypto/hmac %x", n, tag, want)
		}
	}
}

// Seal and open allocate their output and the two cipher objects (the AES
// block and the CTR stream); the tag and its key live on the stack.
const (
	sealAllocBudget = 3
	openAllocBudget = 3
)

func TestSealOpenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	key := testKey(t, 9)
	plaintext := make([]byte, 64)
	verifiable, err := SealVerifiable(rand.Reader, key, plaintext)
	if err != nil {
		t.Fatal(err)
	}
	opaque, err := SealOpaque(rand.Reader, key, plaintext)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"SealVerifiable", sealAllocBudget, func() error { _, err := SealVerifiable(rand.Reader, key, plaintext); return err }},
		{"OpenVerifiable", openAllocBudget, func() error { _, err := OpenVerifiable(key, verifiable); return err }},
		{"SealOpaque", sealAllocBudget, func() error { _, err := SealOpaque(rand.Reader, key, plaintext); return err }},
		{"OpenOpaque", openAllocBudget, func() error { _, err := OpenOpaque(key, opaque); return err }},
	} {
		avg := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs/op", c.name, avg)
		if avg > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, avg, c.budget)
		}
	}
}
