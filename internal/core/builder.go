package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/crypt"
	"sealedbottle/internal/field"
)

// DefaultValidity is the request validity window used when the caller does
// not specify one; expired requests are dropped by relays.
const DefaultValidity = 5 * time.Minute

// BuiltRequest is the initiator-side result of building a request: the public
// package that gets broadcast plus the secrets the initiator must retain to
// process replies (the profile key, the session key x and the private
// layout). None of the secret fields ever leave the initiator.
type BuiltRequest struct {
	// Package is the public request package to broadcast.
	Package *RequestPackage
	// Key is the request profile key K_t. It is retained only so the
	// initiator can itself act as a group-channel endpoint; it is never sent.
	Key crypt.Key
	// X is the initiator's secret session key carried inside the sealed
	// message; matching users reply under it.
	X crypt.Key
	// Layout is the sorted request attribute layout; position i corresponds
	// to Package.Remainders[i]. It is private to the initiator.
	Layout []attr.Attribute
	// Vector is the request profile vector H_t (private to the initiator).
	Vector crypt.ProfileVector
}

// BuildOptions tunes request construction.
type BuildOptions struct {
	// Mode selects verifiable (Protocol 1) or opaque (Protocols 2/3) sealing.
	// Zero value defaults to SealModeVerifiable.
	Mode SealMode
	// Note is an optional application payload included in the sealed message.
	// Only SealModeVerifiable requests may carry a note: an opaque sealed
	// message must be indistinguishable from random for wrong keys, so it
	// carries exactly the 32-byte session key and nothing else.
	Note []byte
	// Validity bounds the request lifetime; zero selects DefaultValidity.
	Validity time.Duration
	// Origin identifies the initiator for reply routing.
	Origin string
	// Rand supplies randomness; nil selects crypto/rand.
	Rand io.Reader
	// Now supplies the current time; nil selects time.Now (injected in tests
	// and by the discrete-event simulator).
	Now func() time.Time
}

// ErrNoteNotAllowed is returned when a note is supplied for an opaque request.
var ErrNoteNotAllowed = errors.New("core: opaque requests cannot carry a note")

// BuildRequest performs the initiator-side pipeline of Fig. 1-2: normalize
// and sort the request attributes, hash them into the request profile vector,
// derive the profile key, compute the remainder vector, build the hint matrix
// when γ > 0, and seal the secret message (a fresh session key x plus the
// optional note) under the profile key.
func BuildRequest(spec RequestSpec, opts BuildOptions) (*BuiltRequest, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Mode == 0 {
		opts.Mode = SealModeVerifiable
	}
	if !opts.Mode.valid() {
		return nil, fmt.Errorf("core: invalid seal mode %d", opts.Mode)
	}
	if opts.Mode == SealModeOpaque && len(opts.Note) > 0 {
		return nil, ErrNoteNotAllowed
	}
	rng := opts.Rand
	if rng == nil {
		rng = crypt.DefaultRand()
	}
	now := time.Now
	if opts.Now != nil {
		now = opts.Now
	}
	validity := opts.Validity
	if validity <= 0 {
		validity = DefaultValidity
	}

	l := spec.buildLayout()
	profile := attr.NewProfile(l.attrs...)
	vector, err := crypt.VectorFromProfileBound(profile, spec.DynamicKey)
	if err != nil {
		return nil, fmt.Errorf("core: hashing request profile: %w", err)
	}
	key, err := vector.Key()
	if err != nil {
		return nil, fmt.Errorf("core: deriving profile key: %w", err)
	}
	prime := spec.EffectivePrime()
	remainders := vector.Remainders(prime)

	var hint *HintMatrix
	if gamma := spec.Gamma(); gamma > 0 {
		hint, err = buildHint(rng, vector, l.optional, gamma)
		if err != nil {
			return nil, err
		}
	}

	x, err := crypt.NewSessionKey(rng)
	if err != nil {
		return nil, fmt.Errorf("core: generating session key: %w", err)
	}
	plaintext := encodePayload(x, opts.Note)
	var sealed []byte
	switch opts.Mode {
	case SealModeVerifiable:
		sealed, err = crypt.SealVerifiable(rng, key, plaintext)
	case SealModeOpaque:
		sealed, err = crypt.SealOpaque(rng, key, plaintext)
	}
	if err != nil {
		return nil, fmt.Errorf("core: sealing secret message: %w", err)
	}

	id, err := newRequestID(rng)
	if err != nil {
		return nil, err
	}
	created := now().UTC()
	pkg := &RequestPackage{
		ID:         id,
		Origin:     opts.Origin,
		Mode:       opts.Mode,
		Prime:      prime,
		Remainders: remainders,
		Optional:   l.optional,
		MaxUnknown: spec.Gamma(),
		Hint:       hint,
		Sealed:     sealed,
		CreatedAt:  created,
		ExpiresAt:  created.Add(validity),
	}
	if err := pkg.validate(); err != nil {
		return nil, err
	}
	return &BuiltRequest{
		Package: pkg,
		Key:     key,
		X:       x,
		Layout:  l.attrs,
		Vector:  vector,
	}, nil
}

// NewHintMatrix constructs the hint matrix for an already-hashed request
// profile vector: C = [I_γ, R] with random non-zero R and B = C × h_opt,
// where h_opt are the hashes at the optional positions of the layout. It is
// exposed so the evaluation harness can time hint generation in isolation
// (Table VI); BuildRequest is the normal entry point.
func NewHintMatrix(rng io.Reader, vector crypt.ProfileVector, optionalMask []bool, gamma int) (*HintMatrix, error) {
	if rng == nil {
		rng = crypt.DefaultRand()
	}
	if len(vector) != len(optionalMask) {
		return nil, fmt.Errorf("core: vector length %d does not match mask length %d", len(vector), len(optionalMask))
	}
	optional := 0
	for _, o := range optionalMask {
		if o {
			optional++
		}
	}
	if gamma <= 0 || gamma > optional {
		return nil, fmt.Errorf("core: γ=%d out of range for %d optional positions", gamma, optional)
	}
	return buildHint(rng, vector, optionalMask, gamma)
}

// buildHint constructs C = [I_γ, R] with random non-zero R and B = C × h_opt,
// where h_opt are the optional attribute hashes in layout order. The hint,
// its matrix, the matrix's elements and B are its only allocations besides
// the random draws' read buffer.
func buildHint(rng io.Reader, vector crypt.ProfileVector, optionalMask []bool, gamma int) (*HintMatrix, error) {
	optional := 0
	for _, o := range optionalMask {
		if o {
			optional++
		}
	}
	hint, err := new(hintAlloc).init(gamma, optional)
	if err != nil {
		return nil, fmt.Errorf("core: building constraint matrix: %w", err)
	}
	c := hint.C
	for i := 0; i < gamma; i++ {
		c.Set(i, i, field.One())
	}
	if err := c.FillRandomNonZero(rng, gamma); err != nil {
		return nil, fmt.Errorf("core: building hint random block: %w", err)
	}
	// B accumulates column by column, so each optional hash is lifted into
	// the field once.
	j := 0
	for pos, opt := range optionalMask {
		if !opt {
			continue
		}
		h := field.FromBytes(vector[pos][:])
		for i := range hint.B {
			hint.B[i] = hint.B[i].Add(c.At(i, j).Mul(h))
		}
		j++
	}
	return hint, nil
}

// payload layout: 32-byte session key x followed by the optional note.
const payloadKeyOffset = crypt.KeySize

func encodePayload(x crypt.Key, note []byte) []byte {
	out := make([]byte, payloadKeyOffset+len(note))
	copy(out, x[:])
	copy(out[payloadKeyOffset:], note)
	return out
}

// decodePayload splits a sealed-message plaintext back into the session key
// and the note. For opaque requests the plaintext is exactly 32 bytes, so any
// candidate decryption decodes "successfully" — by design the structure gives
// a wrong-key holder nothing to verify against.
func decodePayload(plaintext []byte) (crypt.Key, []byte, error) {
	if len(plaintext) < payloadKeyOffset {
		return crypt.Key{}, nil, fmt.Errorf("core: sealed payload too short (%d bytes)", len(plaintext))
	}
	key, err := crypt.KeyFromBytes(plaintext[:payloadKeyOffset])
	if err != nil {
		return crypt.Key{}, nil, err
	}
	// The note aliases plaintext, which every caller owns: it is the fresh
	// output of an open.
	var note []byte
	if len(plaintext) > payloadKeyOffset {
		note = plaintext[payloadKeyOffset:]
	}
	return key, note, nil
}
