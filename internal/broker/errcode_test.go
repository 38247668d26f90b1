package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"sealedbottle/internal/core"
)

// TestErrCodeClassification pins the code assignment for every sentinel and
// the conservative CodeInternal bucket for everything else.
func TestErrCodeClassification(t *testing.T) {
	cases := []struct {
		err  error
		want ErrCode
	}{
		{nil, CodeNone},
		{ErrUnknownBottle, CodeUnknownBottle},
		{ErrDuplicateBottle, CodeDuplicateBottle},
		{ErrBadQuery, CodeBadQuery},
		{ErrFetchBudget, CodeFetchBudget},
		{core.ErrExpired, CodeExpired},
		{core.ErrMalformedPackage, CodeMalformed},
		{fmt.Errorf("wrapped: %w", ErrUnknownBottle), CodeUnknownBottle},
		{ErrRackClosed, CodeInternal},
		{ErrMalformedFrame, CodeInternal},
		{errors.New("anything else"), CodeInternal},
	}
	for _, tc := range cases {
		if got := ErrCodeOf(tc.err); got != tc.want {
			t.Errorf("ErrCodeOf(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	// Decode is the inverse on the coded sentinels.
	for code := CodeUnknownBottle; code < CodeInternal; code++ {
		s := code.Sentinel()
		if s == nil {
			t.Fatalf("code %v has no sentinel", code)
		}
		if got := ErrCodeOf(s); got != code {
			t.Errorf("ErrCodeOf(Sentinel(%v)) = %v", code, got)
		}
	}
}

// TestDecodeWireError covers the decode shapes: exact sentinel text returns
// the sentinel value itself, wrapped text keeps both text and errors.Is
// identity, and a code without a sentinel keeps its code and text, which is
// also the code it is classified as again.
func TestDecodeWireError(t *testing.T) {
	if got := DecodeWireError(CodeUnknownBottle, ErrUnknownBottle.Error()); got != ErrUnknownBottle {
		t.Fatalf("exact text decode = %v, want the sentinel value", got)
	}
	wrapped := DecodeWireError(CodeUnknownBottle, "rack r1: broker: unknown bottle id")
	if !errors.Is(wrapped, ErrUnknownBottle) {
		t.Fatalf("wrapped decode lost errors.Is identity: %v", wrapped)
	}
	if wrapped.Error() != "rack r1: broker: unknown bottle id" {
		t.Fatalf("wrapped decode lost text: %q", wrapped.Error())
	}
	for _, code := range []ErrCode{CodeNone, CodeInternal, ErrCode(200)} {
		decoded := DecodeWireError(code, "disk full")
		var we *WireError
		if !errors.As(decoded, &we) || we.Code != code || decoded.Error() != "disk full" || errors.Unwrap(decoded) != nil {
			t.Fatalf("code %v decoded as %#v, want a WireError keeping code and text", code, decoded)
		}
		if got := ErrCodeOf(decoded); got != code {
			t.Fatalf("ErrCodeOf(decoded code %v) = %v", code, got)
		}
	}
}

// TestErrorListLegacyFlagFallback pins that no fallback is left: a pre-code
// outcome flag (0x01–0x0f, text only) makes every batch outcome decoder
// refuse the frame as malformed, documented sentinel text or not.
func TestErrorListLegacyFlagFallback(t *testing.T) {
	for flag := byte(1); flag < OutcomeCodeBase; flag++ {
		frame := appendString16(append(binary.BigEndian.AppendUint32(nil, 1), flag), ErrUnknownBottle.Error())
		if _, err := UnmarshalErrorList(frame); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("error list with flag %#x: err = %v, want ErrMalformedFrame", flag, err)
		}
		if _, err := UnmarshalSubmitResults(frame); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("submit results with flag %#x: err = %v, want ErrMalformedFrame", flag, err)
		}
		if _, err := UnmarshalFetchResults(frame); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("fetch results with flag %#x: err = %v, want ErrMalformedFrame", flag, err)
		}
	}
}

// TestErrorListCodedRoundTrip proves the batch outcome encoding preserves
// errors.Is identity through marshal/unmarshal for every coded sentinel.
func TestErrorListCodedRoundTrip(t *testing.T) {
	in := []error{
		nil,
		ErrUnknownBottle,
		ErrDuplicateBottle,
		fmt.Errorf("shard 3: %w", ErrFetchBudget),
		core.ErrExpired,
		errors.New("unclassified failure"),
	}
	out, err := UnmarshalErrorList(MarshalErrorList(in))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != nil {
		t.Fatalf("nil outcome decoded as %v", out[0])
	}
	for i, want := range []error{ErrUnknownBottle, ErrDuplicateBottle, ErrFetchBudget, core.ErrExpired} {
		if !errors.Is(out[i+1], want) {
			t.Errorf("item %d = %v, want errors.Is %v", i+1, out[i+1], want)
		}
	}
	if out[3].Error() != "shard 3: "+ErrFetchBudget.Error() {
		t.Errorf("wrapped text lost: %q", out[3].Error())
	}
	if out[5] == nil || out[5].Error() != "unclassified failure" {
		t.Errorf("unclassified item = %v", out[5])
	}
}
