package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"sealedbottle/internal/field"
)

// PackageView is the relay-facing projection of a marshalled request package:
// exactly the fields a broker needs to screen, store, route and expire a
// bottle, decoded without materialising the hint matrix (γ×(γ+β)+γ field
// elements, each a big.Int) or copying the sealed message. Relays never run
// the fuzzy-search recovery, so parsing the hint on the submit path is pure
// waste; candidates still decode the full package with UnmarshalPackage.
//
// The view aliases the remainder vector and optional mask inside the buffer
// passed to UnmarshalPackageView — it stays valid exactly as long as that
// buffer does. Callers that retain the view must retain (or copy) the buffer;
// the broker does this naturally because it retains the raw package bytes for
// re-serving anyway.
//
// Validation parity: UnmarshalPackageView enforces every structural rule of
// UnmarshalPackage (magic, version, mode, prime, reduced remainders, γ range,
// hint presence and shape, non-empty sealed message, no trailing bytes). The
// only check it skips is canonicality of the individual hint field elements,
// which only the candidate-side full decode consumes.
type PackageView struct {
	// ID identifies the request so relays can de-duplicate and rate-limit.
	ID string
	// Origin identifies the initiator (replies are addressed to it).
	Origin string
	// Mode selects the sealing behaviour (Protocol 1 vs 2/3).
	Mode SealMode
	// Prime is the small prime p of the remainder vector.
	Prime uint32
	// MaxUnknown is γ.
	MaxUnknown int
	// CreatedAt and ExpiresAt bound the validity window.
	CreatedAt time.Time
	ExpiresAt time.Time

	// remainders aliases count big-endian uint32 values in the source buffer.
	remainders []byte
	// optional aliases count mask bytes in the source buffer.
	optional []byte
	// attrCount is m_t.
	attrCount int
	// sealedLen is the sealed-message length (the broker only sizes it).
	sealedLen int
}

// AttributeCount returns m_t.
func (v *PackageView) AttributeCount() int { return v.attrCount }

// SealedLen returns the length of the sealed message in bytes.
func (v *PackageView) SealedLen() int { return v.sealedLen }

// Remainder returns the i-th remainder.
func (v *PackageView) Remainder(i int) uint32 {
	return binary.BigEndian.Uint32(v.remainders[4*i:])
}

// IsOptional reports whether layout position i belongs to the optional set.
func (v *PackageView) IsOptional(i int) bool { return v.optional[i] != 0 }

// OptionalCount returns the number of optional positions.
func (v *PackageView) OptionalCount() int {
	n := 0
	for _, o := range v.optional {
		if o != 0 {
			n++
		}
	}
	return n
}

// Expired reports whether the package is expired at time now.
func (v *PackageView) Expired(now time.Time) bool {
	return !v.ExpiresAt.IsZero() && now.After(v.ExpiresAt)
}

// PrefilterMatch runs the presence form of the fast check (Eqs. 6-7) against
// a candidate's residue set, identically to RequestPackage.PrefilterMatch but
// reading the remainder vector straight out of the wire bytes.
func (v *PackageView) PrefilterMatch(s ResidueSet) bool {
	if s.Prime != v.Prime {
		return false
	}
	emptyOptional := 0
	for i := 0; i < v.attrCount; i++ {
		if s.Contains(binary.BigEndian.Uint32(v.remainders[4*i:])) {
			continue
		}
		if v.optional[i] == 0 {
			return false
		}
		if emptyOptional++; emptyOptional > v.MaxUnknown {
			return false
		}
	}
	return true
}

// UnmarshalPackageView decodes the broker-relevant header of a marshalled
// request package. It allocates only the ID and Origin strings; everything
// else is read in place or aliased (see the PackageView lifetime contract).
// Every package accepted by UnmarshalPackage is accepted here with identical
// field values; packages rejected here are also rejected there.
func UnmarshalPackageView(data []byte) (PackageView, error) {
	v, _, err := parsePackage(data)
	return v, err
}

// parsePackage is the one parser of a package's wire form. It makes every
// structural check and returns the view with the hint section it skipped
// (rows, cols, then the elements; nil when the package has none), for
// UnmarshalPackage to decode.
func parsePackage(data []byte) (v PackageView, hint []byte, err error) {
	r := &byteReader{data: data}
	magic, err := r.bytes(len(packageMagic))
	if err != nil || string(magic) != packageMagic {
		return v, nil, fmt.Errorf("%w: bad magic", ErrMalformedPackage)
	}
	version, err := r.byte()
	if err != nil || version != packageVersion {
		return v, nil, fmt.Errorf("%w: unsupported version", ErrMalformedPackage)
	}
	modeByte, err := r.byte()
	if err != nil {
		return v, nil, fmt.Errorf("%w: truncated mode", ErrMalformedPackage)
	}
	v.Mode = SealMode(modeByte)
	if !v.Mode.valid() {
		return v, nil, fmt.Errorf("%w: invalid seal mode %d", ErrMalformedPackage, v.Mode)
	}
	if v.Prime, err = r.uint32(); err != nil {
		return v, nil, fmt.Errorf("%w: truncated prime", ErrMalformedPackage)
	}
	if v.Prime < 3 || !isSmallPrime(v.Prime) {
		return v, nil, fmt.Errorf("%w: bad prime %d", ErrMalformedPackage, v.Prime)
	}
	if v.ID, err = r.string(); err != nil {
		return v, nil, fmt.Errorf("%w: truncated id", ErrMalformedPackage)
	}
	if v.Origin, err = r.string(); err != nil {
		return v, nil, fmt.Errorf("%w: truncated origin", ErrMalformedPackage)
	}
	created, err := r.uint64()
	if err != nil {
		return v, nil, fmt.Errorf("%w: truncated created", ErrMalformedPackage)
	}
	expires, err := r.uint64()
	if err != nil {
		return v, nil, fmt.Errorf("%w: truncated expires", ErrMalformedPackage)
	}
	v.CreatedAt = time.Unix(0, int64(created)).UTC()
	v.ExpiresAt = time.Unix(0, int64(expires)).UTC()
	count, err := r.uint16()
	if err != nil {
		return v, nil, fmt.Errorf("%w: truncated attribute count", ErrMalformedPackage)
	}
	v.attrCount = int(count)
	if v.attrCount == 0 {
		return v, nil, fmt.Errorf("%w: remainder/optional length mismatch", ErrMalformedPackage)
	}
	if v.remainders, err = r.bytes(4 * v.attrCount); err != nil {
		return v, nil, fmt.Errorf("%w: truncated remainders", ErrMalformedPackage)
	}
	for i := 0; i < v.attrCount; i++ {
		if rem := binary.BigEndian.Uint32(v.remainders[4*i:]); rem >= v.Prime {
			return v, nil, fmt.Errorf("%w: remainder %d not reduced mod %d", ErrMalformedPackage, rem, v.Prime)
		}
	}
	if v.optional, err = r.bytes(v.attrCount); err != nil {
		return v, nil, fmt.Errorf("%w: truncated optional mask", ErrMalformedPackage)
	}
	maxUnknown, err := r.uint16()
	if err != nil {
		return v, nil, fmt.Errorf("%w: truncated γ", ErrMalformedPackage)
	}
	v.MaxUnknown = int(maxUnknown)
	optionalCount := v.OptionalCount()
	if v.MaxUnknown > optionalCount {
		return v, nil, fmt.Errorf("%w: γ=%d out of range", ErrMalformedPackage, v.MaxUnknown)
	}
	hintPresent, err := r.byte()
	if err != nil {
		return v, nil, fmt.Errorf("%w: truncated hint flag", ErrMalformedPackage)
	}
	if hintPresent == 1 {
		hintAt := r.off
		rows, err := r.uint16()
		if err != nil {
			return v, nil, fmt.Errorf("%w: truncated hint rows", ErrMalformedPackage)
		}
		cols, err := r.uint16()
		if err != nil {
			return v, nil, fmt.Errorf("%w: truncated hint cols", ErrMalformedPackage)
		}
		if rows == 0 || cols == 0 || int(rows) > v.attrCount || int(cols) > v.attrCount {
			return v, nil, fmt.Errorf("%w: implausible hint shape %dx%d", ErrMalformedPackage, rows, cols)
		}
		// Skip the elements themselves: rows×cols matrix entries plus the
		// rows-long RHS vector, ElementSize bytes each. Canonicality of each
		// element is the one check deferred to the full decode.
		if _, err := r.bytes((int(rows)*int(cols) + int(rows)) * field.ElementSize); err != nil {
			return v, nil, fmt.Errorf("%w: truncated hint matrix", ErrMalformedPackage)
		}
		if v.MaxUnknown > 0 && (int(rows) != v.MaxUnknown || int(cols) != optionalCount) {
			return v, nil, fmt.Errorf("%w: hint matrix shape %dx%d inconsistent with γ=%d, optional=%d",
				ErrMalformedPackage, rows, cols, v.MaxUnknown, optionalCount)
		}
		hint = data[hintAt:r.off]
	} else if v.MaxUnknown > 0 {
		return v, nil, fmt.Errorf("%w: γ=%d but no hint matrix", ErrMalformedPackage, v.MaxUnknown)
	}
	sealedLen, err := r.uint32()
	if err != nil {
		return v, nil, fmt.Errorf("%w: truncated sealed length", ErrMalformedPackage)
	}
	v.sealedLen = int(sealedLen)
	if v.sealedLen == 0 {
		return v, nil, fmt.Errorf("%w: empty sealed message", ErrMalformedPackage)
	}
	if _, err := r.bytes(v.sealedLen); err != nil {
		return v, nil, fmt.Errorf("%w: truncated sealed message", ErrMalformedPackage)
	}
	if r.remaining() != 0 {
		return v, nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformedPackage, r.remaining())
	}
	return v, hint, nil
}
