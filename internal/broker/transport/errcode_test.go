package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/core"
)

// TestErrCodeRoundTripOverWire is the error-code round-trip table test: every
// exported sentinel provoked against a real rack must survive the trip
// rack → server → client → errors.Is, with the full remote text preserved.
// This is what lets the ring (and any caller) test transported errors
// structurally instead of matching strings.
func TestErrCodeRoundTripOverWire(t *testing.T) {
	t.Run("mux", exerciseErrCodeRoundTrip)
}

func exerciseErrCodeRoundTrip(t *testing.T) {
	c, cleanup := newMuxPair(t)
	defer cleanup()

	ctx := context.Background()
	raw, _ := buildRaw(t, 7)
	if _, err := c.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}

	// An already-expired package provokes the Expired sentinel.
	expiredBuilt, err := core.BuildRequest(core.PerfectMatch(attr.MustNew("interest", "chess")),
		core.BuildOptions{Origin: "old", Validity: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	expiredRaw, err := expiredBuilt.Package.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)

	cases := []struct {
		name     string
		provoke  func() error
		sentinel error
	}{
		{
			name:     "unknown bottle",
			provoke:  func() error { _, err := c.Fetch(ctx, "no-such-bottle"); return err },
			sentinel: broker.ErrUnknownBottle,
		},
		{
			name:     "duplicate bottle",
			provoke:  func() error { _, err := c.Submit(ctx, raw); return err },
			sentinel: broker.ErrDuplicateBottle,
		},
		{
			name: "bad query",
			provoke: func() error {
				_, err := c.Sweep(ctx, broker.SweepQuery{})
				return err
			},
			sentinel: broker.ErrBadQuery,
		},
		{
			name: "malformed package",
			provoke: func() error {
				_, err := c.Submit(ctx, []byte("not a package"))
				return err
			},
			sentinel: core.ErrMalformedPackage,
		},
		{
			name: "expired package",
			provoke: func() error {
				_, err := c.Submit(ctx, expiredRaw)
				return err
			},
			sentinel: core.ErrExpired,
		},
		{
			name: "unknown bottle via reply",
			provoke: func() error {
				rep := &core.Reply{RequestID: "ghost", From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}
				return c.Reply(ctx, "ghost", rep.Marshal())
			},
			sentinel: broker.ErrUnknownBottle,
		},
	}
	for _, tc := range cases {
		err := tc.provoke()
		if err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: errors.Is(%v, %v) = false", tc.name, err, tc.sentinel)
		}
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Errorf("%s: %v is not a RemoteError — the server answered, pools must not retry", tc.name, err)
		} else if re.Code == broker.CodeNone {
			t.Errorf("%s: RemoteError carries no code", tc.name)
		}
	}
}

// TestErrCodeBatchItemRoundTrip proves per-item batch outcomes carry their
// codes through the outcome-flag byte: a transported ReplyBatch/FetchBatch
// miss is errors.Is-identical to the in-process sentinel.
func TestErrCodeBatchItemRoundTrip(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	defer rack.Close()
	l := ListenPipe()
	srv := NewServer(rack)
	go srv.Serve(l)
	defer func() { l.Close(); srv.Close() }()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx := context.Background()
	raw, _ := buildRaw(t, 11)
	if _, err := m.Submit(ctx, raw); err != nil {
		t.Fatal(err)
	}
	results, err := m.SubmitBatch(ctx, [][]byte{raw})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, broker.ErrDuplicateBottle) {
		t.Fatalf("batch duplicate item = %v, want errors.Is ErrDuplicateBottle", results[0].Err)
	}

	rep := &core.Reply{RequestID: "ghost", From: "bob", SentAt: time.Now(), Acks: [][]byte{{7}}}
	errs, err := m.ReplyBatch(ctx, []broker.ReplyPost{{RequestID: "ghost", Raw: rep.Marshal()}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[0], broker.ErrUnknownBottle) {
		t.Fatalf("batch reply miss = %v, want errors.Is ErrUnknownBottle", errs[0])
	}

	fetches, err := m.FetchBatch(ctx, []string{"ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(fetches[0].Err, broker.ErrUnknownBottle) {
		t.Fatalf("batch fetch miss = %v, want errors.Is ErrUnknownBottle", fetches[0].Err)
	}
}

// TestErrCodeLegacyAndUnknownFallback covers the two edges of the status
// decode. A pre-code server's error status (0x01, text only) is a malformed
// frame, never a remote error whose text could be matched against the
// sentinels; neither is any other status below 0x10. An unknown future code
// keeps its numeric value and text without inventing a sentinel.
func TestErrCodeLegacyAndUnknownFallback(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	go muxScriptServer(t, srv, func(reqs []recordedReq, w io.Writer) {
		if err := writeMuxFrame(w, reqs[0].seq, 0x01, []byte(broker.ErrUnknownBottle.Error())); err != nil {
			t.Errorf("writing response: %v", err)
		}
	}, 1)
	m, err := NewMux(cli)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, err = m.Fetch(context.Background(), "ghost")
	var re *RemoteError
	if !errors.Is(err, broker.ErrMalformedFrame) || errors.As(err, &re) || errors.Is(err, broker.ErrUnknownBottle) {
		t.Fatalf("status 0x01 answer = %v, want a malformed frame", err)
	}
	for status := byte(0x02); status < broker.OutcomeCodeBase; status++ {
		if err := responseError(status, nil); !errors.Is(err, broker.ErrMalformedFrame) {
			t.Fatalf("status %#x = %v, want a malformed frame", status, err)
		}
	}

	const futureCode = 200
	var unknown *RemoteError
	if !errors.As(responseError(broker.OutcomeCodeBase+futureCode, []byte("some future failure")), &unknown) ||
		unknown.Code != broker.ErrCode(futureCode) || unknown.Msg != "some future failure" {
		t.Fatalf("unknown code decoded as %+v, want code %d and its text", unknown, futureCode)
	}
	if unknown.Unwrap() != nil {
		t.Fatalf("unknown code unwrapped to %v, want nil", unknown.Unwrap())
	}
	for _, code := range []broker.ErrCode{broker.CodeNone, broker.CodeInternal, broker.ErrCode(futureCode)} {
		if sent := code.Sentinel(); sent != nil {
			t.Fatalf("code %v has sentinel %v, want none", code, sent)
		}
	}

	// The status byte encoding round-trips every real code.
	for code := broker.CodeUnknownBottle; code <= broker.CodeDraining; code++ {
		if !errors.As(responseError(statusOf(errorForCode(code)), nil), &re) || re.Code != code {
			t.Fatalf("status round trip of %v = %+v", code, re)
		}
	}
}

// errorForCode returns an error classified as the given code.
func errorForCode(code broker.ErrCode) error {
	if s := code.Sentinel(); s != nil {
		return s
	}
	return errors.New("opaque")
}
