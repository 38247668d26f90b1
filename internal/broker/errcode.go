package broker

import (
	"errors"
	"fmt"

	"sealedbottle/internal/core"
)

// ErrCode is the one-byte error classification carried by the wire protocol's
// error responses and batch outcome flags, so a client on the far side of a
// TCP connection can reconstruct the broker's sentinel errors and test them
// with errors.Is exactly as in-process callers do. The code is transported in
// the response's status byte (and a batch item's outcome flag) as 0x10+code.
// See docs/PROTOCOL.md §1.3.1.
type ErrCode byte

// Wire error codes. CodeNone is the code of no error (ErrCodeOf(nil));
// CodeInternal covers every error without a dedicated code (rack closed,
// malformed frame, unknown opcode, durability failures).
const (
	CodeNone ErrCode = iota
	CodeUnknownBottle
	CodeDuplicateBottle
	CodeBadQuery
	CodeFetchBudget
	CodeExpired
	CodeMalformed
	CodeInternal
	// CodeUnauthorized and CodeOverload joined in the identity-secured
	// transport revision; they sit after CodeInternal because wire codes are
	// append-only.
	CodeUnauthorized
	CodeOverload
	// CodeDraining joined with the admin control plane: a draining rack
	// refuses client submits with it while continuing to serve everything
	// else. Append-only, so it sits after CodeOverload.
	CodeDraining
)

// String names the code for logs and error text.
func (c ErrCode) String() string {
	switch c {
	case CodeNone:
		return "none"
	case CodeUnknownBottle:
		return "unknown-bottle"
	case CodeDuplicateBottle:
		return "duplicate-bottle"
	case CodeBadQuery:
		return "bad-query"
	case CodeFetchBudget:
		return "fetch-budget"
	case CodeExpired:
		return "expired"
	case CodeMalformed:
		return "malformed"
	case CodeInternal:
		return "internal"
	case CodeUnauthorized:
		return "unauthorized"
	case CodeOverload:
		return "overload"
	case CodeDraining:
		return "draining"
	}
	return fmt.Sprintf("code-%d", byte(c))
}

// ErrCodeOf classifies an error for the wire: the code whose sentinel the
// error wraps, the code a decoded *WireError arrived with, or CodeInternal
// for anything else. Only exact sentinel families are classified — a code
// must decode back to one sentinel, so errors that merely resemble one stay
// CodeInternal rather than acquiring a wrong errors.Is identity on the far
// side.
func ErrCodeOf(err error) ErrCode {
	switch {
	case err == nil:
		return CodeNone
	case errors.Is(err, ErrUnknownBottle):
		return CodeUnknownBottle
	case errors.Is(err, ErrDuplicateBottle):
		return CodeDuplicateBottle
	case errors.Is(err, ErrBadQuery):
		return CodeBadQuery
	case errors.Is(err, ErrFetchBudget):
		return CodeFetchBudget
	case errors.Is(err, core.ErrExpired):
		return CodeExpired
	case errors.Is(err, core.ErrMalformedPackage):
		return CodeMalformed
	case errors.Is(err, ErrUnauthorized):
		return CodeUnauthorized
	case errors.Is(err, ErrOverload):
		return CodeOverload
	case errors.Is(err, ErrDraining):
		return CodeDraining
	}
	if we, ok := err.(*WireError); ok {
		// Re-encoding a decoded outcome writes the byte it arrived with.
		return we.Code
	}
	return CodeInternal
}

// Sentinel returns the broker/core sentinel a code decodes to, or nil for
// CodeNone, CodeInternal and unknown codes (those carry no errors.Is
// identity).
func (c ErrCode) Sentinel() error {
	switch c {
	case CodeUnknownBottle:
		return ErrUnknownBottle
	case CodeDuplicateBottle:
		return ErrDuplicateBottle
	case CodeBadQuery:
		return ErrBadQuery
	case CodeFetchBudget:
		return ErrFetchBudget
	case CodeExpired:
		return core.ErrExpired
	case CodeMalformed:
		return core.ErrMalformedPackage
	case CodeUnauthorized:
		return ErrUnauthorized
	case CodeOverload:
		return ErrOverload
	case CodeDraining:
		return ErrDraining
	}
	return nil
}

// WireError is an error decoded from a coded wire outcome whose text differs
// from its sentinel's (the server wrapped the sentinel with context) or whose
// code has no sentinel. It preserves the remote text verbatim while
// unwrapping to the sentinel, so errors.Is behaves identically to the
// in-process error.
type WireError struct {
	// Code is the wire classification.
	Code ErrCode
	// Msg is the server-side error text.
	Msg string
}

func (e *WireError) Error() string { return e.Msg }

// Unwrap exposes the code's sentinel to errors.Is; nil for codes without one.
func (e *WireError) Unwrap() error { return e.Code.Sentinel() }

// DecodeWireError reconstructs an error from its wire code and text: the
// sentinel itself when the text is exactly the sentinel's, and a WireError
// preserving both otherwise.
func DecodeWireError(code ErrCode, msg string) error {
	if s := code.Sentinel(); s != nil && msg == s.Error() {
		return s
	}
	return &WireError{Code: code, Msg: msg}
}
