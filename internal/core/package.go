package core

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"sealedbottle/internal/field"
)

// SealMode selects how the request's secret message is sealed.
type SealMode uint8

const (
	// SealModeVerifiable includes confirmation information so a candidate can
	// tell locally whether a candidate key decrypted the message (Protocol 1).
	SealModeVerifiable SealMode = iota + 1
	// SealModeOpaque omits all confirmation information; a candidate cannot
	// distinguish a correct decryption from garbage (Protocols 2 and 3).
	SealModeOpaque
)

// String implements fmt.Stringer.
func (m SealMode) String() string {
	switch m {
	case SealModeVerifiable:
		return "verifiable"
	case SealModeOpaque:
		return "opaque"
	default:
		return fmt.Sprintf("SealMode(%d)", uint8(m))
	}
}

// valid reports whether the mode is one of the defined constants.
func (m SealMode) valid() bool {
	return m == SealModeVerifiable || m == SealModeOpaque
}

// HintMatrix is the fuzzy-search hint M = [C, B] of Section III-C2:
// C = [I_γ, R] is the γ×(γ+β) constraint matrix and B = C × h_opt is its
// product with the optional attribute hashes of the request profile vector.
type HintMatrix struct {
	// C is the constraint matrix (identity block followed by random block).
	C *field.Matrix
	// B is the right-hand side, one field element per constraint row.
	B field.Vector
}

// Gamma returns γ, the number of constraint rows (= maximum unknowns).
func (h *HintMatrix) Gamma() int {
	if h == nil || h.C == nil {
		return 0
	}
	return h.C.Rows()
}

// OptionalCount returns γ+β, the number of optional attributes covered.
func (h *HintMatrix) OptionalCount() int {
	if h == nil || h.C == nil {
		return 0
	}
	return h.C.Cols()
}

// hintAlloc holds a hint and its constraint matrix, so that both take one
// allocation.
type hintAlloc struct {
	hint HintMatrix
	c    field.Matrix
}

// init makes a.hint a zero hint with a rows×cols constraint matrix (a.c) and
// a right-hand side of rows elements, and returns it.
func (a *hintAlloc) init(rows, cols int) (*HintMatrix, error) {
	if err := a.c.Reshape(rows, cols); err != nil {
		return nil, err
	}
	a.hint = HintMatrix{C: &a.c, B: make(field.Vector, rows)}
	return &a.hint, nil
}

// cloneInto makes a.hint a deep copy of h and returns it.
func (h *HintMatrix) cloneInto(a *hintAlloc) *HintMatrix {
	rows, cols := h.C.Rows(), h.C.Cols()
	// Reshape fails only for the empty shape of a zero Matrix, which a.c
	// already has.
	if a.c.Reshape(rows, cols) == nil {
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.c.Set(i, j, h.C.At(i, j))
			}
		}
	}
	a.hint = HintMatrix{C: &a.c, B: h.B.Clone()}
	return &a.hint
}

// RequestPackage is what the initiator broadcasts (Fig. 1): the sealed secret
// message, the remainder vector, the optional-position mask, and — for fuzzy
// searches — the hint matrix. The request profile vector and the profile key
// are deliberately absent.
type RequestPackage struct {
	// ID identifies the request so relays can de-duplicate and rate-limit.
	ID string
	// Origin identifies the initiator (an opaque address; replies go there).
	Origin string
	// Mode selects the sealing behaviour (Protocol 1 vs 2/3).
	Mode SealMode
	// Prime is the small prime p of the remainder vector.
	Prime uint32
	// Remainders holds one remainder per request attribute, in the canonical
	// sorted layout order.
	Remainders []uint32
	// Optional marks which layout positions belong to the optional set O_t.
	Optional []bool
	// MaxUnknown is γ: how many optional positions a candidate may be unable
	// to fill and still recover the key via the hint matrix.
	MaxUnknown int
	// Hint is nil when γ = 0 (perfect match over the optional set required).
	Hint *HintMatrix
	// Sealed is the encrypted secret message (the session key x, and for
	// Protocol 1 an optional application note).
	Sealed []byte
	// CreatedAt and ExpiresAt bound the request's validity window; expired
	// requests are dropped by relays.
	CreatedAt time.Time
	ExpiresAt time.Time
}

// Errors returned while encoding or decoding request packages.
var (
	// ErrMalformedPackage indicates a wire encoding that cannot be decoded.
	ErrMalformedPackage = errors.New("core: malformed request package")
	// ErrExpired indicates the request's validity window has passed.
	ErrExpired = errors.New("core: request package has expired")
)

// AttributeCount returns m_t.
func (p *RequestPackage) AttributeCount() int { return len(p.Remainders) }

// OptionalCount returns the number of optional positions.
func (p *RequestPackage) OptionalCount() int {
	n := 0
	for _, o := range p.Optional {
		if o {
			n++
		}
	}
	return n
}

// NecessaryCount returns α.
func (p *RequestPackage) NecessaryCount() int {
	return len(p.Optional) - p.OptionalCount()
}

// MinOptional returns β = (optional count) − γ.
func (p *RequestPackage) MinOptional() int {
	return p.OptionalCount() - p.MaxUnknown
}

// Threshold returns θ = (α+β)/m_t as encoded in the package.
func (p *RequestPackage) Threshold() float64 {
	if p.AttributeCount() == 0 {
		return 0
	}
	return float64(p.NecessaryCount()+p.MinOptional()) / float64(p.AttributeCount())
}

// Expired reports whether the package is expired at time now.
func (p *RequestPackage) Expired(now time.Time) bool {
	return !p.ExpiresAt.IsZero() && now.After(p.ExpiresAt)
}

// validate checks internal consistency (lengths, mode, prime).
func (p *RequestPackage) validate() error {
	if !p.Mode.valid() {
		return fmt.Errorf("%w: invalid seal mode %d", ErrMalformedPackage, p.Mode)
	}
	if len(p.Remainders) == 0 || len(p.Remainders) != len(p.Optional) {
		return fmt.Errorf("%w: remainder/optional length mismatch", ErrMalformedPackage)
	}
	if p.Prime < 3 || !isSmallPrime(p.Prime) {
		return fmt.Errorf("%w: bad prime %d", ErrMalformedPackage, p.Prime)
	}
	for _, r := range p.Remainders {
		if r >= p.Prime {
			return fmt.Errorf("%w: remainder %d not reduced mod %d", ErrMalformedPackage, r, p.Prime)
		}
	}
	if p.MaxUnknown < 0 || p.MaxUnknown > p.OptionalCount() {
		return fmt.Errorf("%w: γ=%d out of range", ErrMalformedPackage, p.MaxUnknown)
	}
	if p.MaxUnknown > 0 {
		if p.Hint == nil {
			return fmt.Errorf("%w: γ=%d but no hint matrix", ErrMalformedPackage, p.MaxUnknown)
		}
		if p.Hint.Gamma() != p.MaxUnknown || p.Hint.OptionalCount() != p.OptionalCount() {
			return fmt.Errorf("%w: hint matrix shape %dx%d inconsistent with γ=%d, optional=%d",
				ErrMalformedPackage, p.Hint.Gamma(), p.Hint.OptionalCount(), p.MaxUnknown, p.OptionalCount())
		}
		if len(p.Hint.B) != p.Hint.Gamma() {
			return fmt.Errorf("%w: hint RHS length %d != γ=%d", ErrMalformedPackage, len(p.Hint.B), p.Hint.Gamma())
		}
	}
	if len(p.Sealed) == 0 {
		return fmt.Errorf("%w: empty sealed message", ErrMalformedPackage)
	}
	return nil
}

// packageAlloc holds a package and its hint, so that the three structs take
// one allocation.
type packageAlloc struct {
	pkg  RequestPackage
	hint hintAlloc
}

// Clone returns a deep copy of the package.
func (p *RequestPackage) Clone() *RequestPackage {
	a := new(packageAlloc)
	out := &a.pkg
	*out = *p
	out.Remainders = slices.Clone(p.Remainders)
	out.Optional = slices.Clone(p.Optional)
	out.Sealed = slices.Clone(p.Sealed)
	if p.Hint != nil {
		out.Hint = p.Hint.cloneInto(&a.hint)
	}
	return out
}

// Wire format constants.
const (
	packageMagic   = "SBRQ"
	packageVersion = 1
)

// Marshal encodes the package into its compact binary wire form. The wire
// size is what the communication-cost experiments measure.
func (p *RequestPackage) Marshal() ([]byte, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, p.wireSize())
	buf = append(buf, packageMagic...)
	buf = append(buf, packageVersion, byte(p.Mode))
	buf = binary.BigEndian.AppendUint32(buf, p.Prime)
	buf = appendString(buf, p.ID)
	buf = appendString(buf, p.Origin)
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.CreatedAt.UnixNano()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.ExpiresAt.UnixNano()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Remainders)))
	for _, r := range p.Remainders {
		buf = binary.BigEndian.AppendUint32(buf, r)
	}
	for _, o := range p.Optional {
		if o {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(p.MaxUnknown))
	if p.hasHint() {
		buf = append(buf, 1)
		buf = binary.BigEndian.AppendUint16(buf, uint16(p.Hint.C.Rows()))
		buf = binary.BigEndian.AppendUint16(buf, uint16(p.Hint.C.Cols()))
		for i := 0; i < p.Hint.C.Rows(); i++ {
			for j := 0; j < p.Hint.C.Cols(); j++ {
				buf = p.Hint.C.At(i, j).AppendBytes(buf)
			}
		}
		for _, e := range p.Hint.B {
			buf = e.AppendBytes(buf)
		}
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Sealed)))
	buf = append(buf, p.Sealed...)
	return buf, nil
}

// hasHint reports whether the encoding carries a hint matrix.
func (p *RequestPackage) hasHint() bool { return p.Hint != nil && p.Hint.Gamma() > 0 }

// wireSize is the length of Marshal's output, field by field in its order.
func (p *RequestPackage) wireSize() int {
	n := len(packageMagic) + 2 + 4 // magic, version and mode, prime
	n += 2 + len(p.ID) + 2 + len(p.Origin)
	n += 8 + 8                                     // created, expires
	n += 2 + 4*len(p.Remainders) + len(p.Optional) // count, remainders, mask
	n += 2 + 1                                     // γ, hint flag
	if p.hasHint() {
		n += 2 + 2 + field.ElementSize*(p.Hint.C.Rows()*p.Hint.C.Cols()+len(p.Hint.B))
	}
	return n + 4 + len(p.Sealed)
}

// WireSize returns the size in bytes of the marshalled package.
func (p *RequestPackage) WireSize() (int, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return p.wireSize(), nil
}

// UnmarshalPackage decodes a package from its wire form. The header goes
// through UnmarshalPackageView's parser, which makes every structural check;
// what is added here is the hint matrix, whose elements must each be
// canonical, and a copy of the sealed message.
func UnmarshalPackage(data []byte) (*RequestPackage, error) {
	v, hint, err := parsePackage(data)
	if err != nil {
		return nil, err
	}
	a := new(packageAlloc)
	p := &a.pkg
	p.ID, p.Origin, p.Mode, p.Prime = v.ID, v.Origin, v.Mode, v.Prime
	p.CreatedAt, p.ExpiresAt, p.MaxUnknown = v.CreatedAt, v.ExpiresAt, v.MaxUnknown
	p.Remainders = make([]uint32, v.attrCount)
	p.Optional = make([]bool, v.attrCount)
	for i := range p.Remainders {
		p.Remainders[i] = v.Remainder(i)
		p.Optional[i] = v.IsOptional(i)
	}
	if hint != nil {
		rows, cols := int(binary.BigEndian.Uint16(hint)), int(binary.BigEndian.Uint16(hint[2:]))
		if p.Hint, err = a.hint.init(rows, cols); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformedPackage, err)
		}
		// The parser sized the section: rows×cols matrix entries, then the
		// rows-long right-hand side.
		for k, elems := 0, hint[4:]; k < rows*cols+rows; k++ {
			e, err := field.ElementFromCanonicalBytes(elems[k*field.ElementSize : (k+1)*field.ElementSize])
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrMalformedPackage, err)
			}
			if k < rows*cols {
				p.Hint.C.Set(k/cols, k%cols, e)
			} else {
				p.Hint.B[k-rows*cols] = e
			}
		}
	}
	p.Sealed = append([]byte(nil), data[len(data)-v.sealedLen:]...)
	return p, nil
}

// newRequestID draws a random 128-bit request identifier.
func newRequestID(rng io.Reader) (string, error) {
	var raw [16]byte
	if _, err := io.ReadFull(rng, raw[:]); err != nil {
		return "", fmt.Errorf("core: generating request id: %w", err)
	}
	return hex.EncodeToString(raw[:]), nil
}

// appendString appends a length-prefixed string (uint16 length).
func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// byteReader is a minimal bounds-checked reader over a byte slice.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) remaining() int { return len(r.data) - r.off }

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, io.ErrUnexpectedEOF
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *byteReader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *byteReader) uint16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *byteReader) uint32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *byteReader) uint64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *byteReader) string() (string, error) {
	n, err := r.uint16()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
