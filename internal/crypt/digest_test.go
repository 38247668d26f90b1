package crypt

import (
	"crypto/rand"
	"crypto/sha256"
	"math/big"
	"testing"
	"testing/quick"
)

func TestHashAttributeDeterministic(t *testing.T) {
	a := HashAttribute("interest:basketball")
	b := HashAttribute("interest:basketball")
	if !a.Equal(b) {
		t.Error("same input must hash identically")
	}
	c := HashAttribute("interest:chess")
	if a.Equal(c) {
		t.Error("different inputs should not collide")
	}
	want := sha256.Sum256([]byte("interest:basketball"))
	if a != Digest(want) {
		t.Error("HashAttribute must be plain SHA-256 of the canonical form")
	}
}

func TestHashAttributeBound(t *testing.T) {
	plain := HashAttribute("interest:basketball")
	bound1 := HashAttributeBound("interest:basketball", []byte("locA"))
	bound2 := HashAttributeBound("interest:basketball", []byte("locB"))
	if plain.Equal(bound1) {
		t.Error("bound hash must differ from plain hash")
	}
	if bound1.Equal(bound2) {
		t.Error("different dynamic keys must yield different hashes")
	}
	if !bound1.Equal(HashAttributeBound("interest:basketball", []byte("locA"))) {
		t.Error("bound hash must be deterministic")
	}
}

func TestDigestMod(t *testing.T) {
	tests := []struct {
		name string
		in   string
		p    uint32
	}{
		{"p=11", "interest:basketball", 11},
		{"p=23", "sex:male", 23},
		{"p=7", "university:columbia", 7},
		{"p=65521", "profession:engineer", 65521},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := HashAttribute(tt.in)
			got := d.Mod(tt.p)
			want := new(big.Int).Mod(d.Big(), big.NewInt(int64(tt.p))).Uint64()
			if uint64(got) != want {
				t.Errorf("Mod(%d) = %d, want %d", tt.p, got, want)
			}
			if got >= tt.p {
				t.Errorf("remainder %d out of range for p=%d", got, tt.p)
			}
		})
	}
	var d Digest
	if d.Mod(0) != 0 {
		t.Error("Mod(0) should return 0, not panic")
	}
}

// Property: Digest.Mod agrees with math/big for arbitrary content and primes.
func TestDigestModMatchesBigProperty(t *testing.T) {
	f := func(data []byte, praw uint16) bool {
		p := uint32(praw%1000) + 2
		d := HashBytes(data)
		want := new(big.Int).Mod(d.Big(), big.NewInt(int64(p))).Uint64()
		return uint64(d.Mod(p)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// byteLoopMod is the byte-at-a-time Horner reduction Digest.Mod replaced.
func byteLoopMod(d Digest, p uint32) uint32 {
	var rem uint64
	for _, b := range d {
		rem = (rem<<8 | uint64(b)) % uint64(p)
	}
	return uint32(rem)
}

// TestDigestModMatchesReferences holds the word-wise Digest.Mod against the
// byte loop and math/big over random digests, every prime below 1000 and the
// extremes of the digest range.
func TestDigestModMatchesReferences(t *testing.T) {
	digests := []Digest{{}, HashAttribute("interest:basketball")}
	var ones Digest
	for i := range ones {
		ones[i] = 0xff
	}
	digests = append(digests, ones)
	for i := 0; i < 64; i++ {
		var d Digest
		if _, err := rand.Read(d[:]); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	for p := uint32(2); p < 1000; p++ {
		if !big.NewInt(int64(p)).ProbablyPrime(0) {
			continue
		}
		bp := big.NewInt(int64(p))
		for _, d := range digests {
			got := d.Mod(p)
			if want := byteLoopMod(d, p); got != want {
				t.Fatalf("%x mod %d = %d, byte loop %d", d[:], p, got, want)
			}
			if want := new(big.Int).Mod(d.Big(), bp).Uint64(); uint64(got) != want {
				t.Fatalf("%x mod %d = %d, math/big %d", d[:], p, got, want)
			}
		}
	}
}

// Property: Theorem 1 — equal hashes have equal remainders, so differing
// remainders prove differing hashes.
func TestTheorem1Property(t *testing.T) {
	f := func(a, b string, praw uint16) bool {
		p := uint32(praw%200) + 2
		ha, hb := HashAttribute(a), HashAttribute(b)
		if ha.Equal(hb) {
			return ha.Mod(p) == hb.Mod(p)
		}
		// Contrapositive direction: if remainders differ the hashes differ.
		if ha.Mod(p) != hb.Mod(p) && ha.Equal(hb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDigestBigRoundTrip(t *testing.T) {
	d := HashAttribute("tag:music")
	var back Digest
	d.Big().FillBytes(back[:])
	if !back.Equal(d) {
		t.Error("Big did not round-trip through its big-endian bytes")
	}
}

func TestDigestFromBytes(t *testing.T) {
	raw := make([]byte, DigestSize)
	raw[0] = 0xAB
	d, err := DigestFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 0xAB {
		t.Error("content not copied")
	}
	if _, err := DigestFromBytes(raw[:10]); err == nil {
		t.Error("short input should fail")
	}
}

func TestDigestZeroAndString(t *testing.T) {
	var zero Digest
	if !zero.IsZero() {
		t.Error("zero digest should report IsZero")
	}
	d := HashAttribute("x")
	if d.IsZero() {
		t.Error("real digest should not be zero")
	}
	if len(d.String()) == 0 {
		t.Error("String should not be empty")
	}
	if d.Uint64() == 0 && d[0]|d[1]|d[2]|d[3]|d[4]|d[5]|d[6]|d[7] != 0 {
		t.Error("Uint64 should fold the leading bytes")
	}
}
