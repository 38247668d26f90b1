package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker"
)

// testAuthKey returns a fixed signing key so failures reproduce.
func testAuthKey(tb testing.TB) []byte {
	tb.Helper()
	key, err := auth.ParseKey("0101010101010101010101010101010101010101010101010101010101010101")
	if err != nil {
		tb.Fatal(err)
	}
	return key
}

// mintToken mints a no-expiry token for the identity with the given scope.
func mintToken(tb testing.TB, key []byte, identity string, ops auth.Ops) []byte {
	tb.Helper()
	tok, err := auth.Mint(key, auth.Token{Identity: identity, Ops: ops})
	if err != nil {
		tb.Fatal(err)
	}
	return tok
}

// startAuthServer serves a fresh rack over a pipe listener with the given
// server options, tearing everything down with the test.
func startAuthServer(tb testing.TB, opts ServerOptions) *PipeListener {
	tb.Helper()
	rack := broker.New(broker.Config{Shards: 4, Workers: 2, ReapInterval: -1})
	l := ListenPipe()
	srv := NewServer(rack, opts)
	go srv.Serve(l)
	tb.Cleanup(func() {
		l.Close()
		srv.Close()
		rack.Close()
	})
	return l
}

// dialMuxPipe opens a multiplexed client over the pipe listener.
func dialMuxPipe(tb testing.TB, l *PipeListener, opts Options) *Mux {
	tb.Helper()
	conn, err := l.Dial()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewMux(conn, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	return m
}

// TestAuthRequiredNoToken verifies that a connection presenting no token to a
// server that requires one receives a typed ErrUnauthorized answer for every
// operation, with the connection surviving the denial.
func TestAuthRequiredNoToken(t *testing.T) {
	key := testAuthKey(t)
	l := startAuthServer(t, ServerOptions{AuthKey: key})
	raw, _ := buildRaw(t, 1)

	m := dialMuxPipe(t, l, Options{})
	for i := 0; i < 2; i++ { // twice: the denial must not cost the connection
		if _, err := m.Submit(context.Background(), raw); !errors.Is(err, broker.ErrUnauthorized) {
			t.Fatalf("mux Submit err = %v, want ErrUnauthorized", err)
		}
	}
	if _, err := m.Stats(context.Background()); !errors.Is(err, broker.ErrUnauthorized) {
		t.Fatalf("mux Stats err = %v, want ErrUnauthorized", err)
	}
}

// TestAuthTokenScope verifies that a verified token is held to its permitted
// operations: out-of-scope calls answer ErrUnauthorized, in-scope calls work.
func TestAuthTokenScope(t *testing.T) {
	key := testAuthKey(t)
	l := startAuthServer(t, ServerOptions{AuthKey: key})
	tok := mintToken(t, key, "sweeper-7", auth.OpSweep|auth.OpStats)
	m := dialMuxPipe(t, l, Options{Token: tok})

	raw, _ := buildRaw(t, 2)
	if _, err := m.Submit(context.Background(), raw); !errors.Is(err, broker.ErrUnauthorized) {
		t.Fatalf("out-of-scope Submit err = %v, want ErrUnauthorized", err)
	}
	if _, err := m.Sweep(context.Background(), broker.SweepQuery{}); errors.Is(err, broker.ErrUnauthorized) {
		t.Fatalf("in-scope Sweep unexpectedly unauthorized: %v", err)
	}
	if _, err := m.Stats(context.Background()); err != nil {
		t.Fatalf("in-scope Stats err = %v", err)
	}
}

// TestAuthExpiredToken verifies that a structurally valid but expired token
// pins the unauthorized answer, under the server's injected clock.
func TestAuthExpiredToken(t *testing.T) {
	key := testAuthKey(t)
	now := time.Unix(1_000_000, 0)
	tok, err := auth.Mint(key, auth.Token{Identity: "late", Ops: auth.OpsClient, Expiry: now.Add(-time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	l := startAuthServer(t, ServerOptions{AuthKey: key, AuthNow: func() time.Time { return now }})
	m := dialMuxPipe(t, l, Options{Token: tok})
	if _, err := m.Stats(context.Background()); !errors.Is(err, broker.ErrUnauthorized) {
		t.Fatalf("expired-token Stats err = %v, want ErrUnauthorized", err)
	}
}

// TestAuthTokenIgnoredByOpenServer verifies interop the other way: a client
// configured with a token talks to a server with no key, which consumes the
// HELLO and serves the connection anonymously.
func TestAuthTokenIgnoredByOpenServer(t *testing.T) {
	l := startAuthServer(t, ServerOptions{})
	tok := mintToken(t, testAuthKey(t), "alice", auth.OpsClient)
	m := dialMuxPipe(t, l, Options{Token: tok})
	exerciseEndToEnd(t, m)
}

// TestOwnershipOverWire verifies the tentpole's cross-identity guarantee end
// to end: bottles fetched or removed over TCP framing by a different verified
// identity answer ErrUnauthorized, while the submitter retains full access.
func TestOwnershipOverWire(t *testing.T) {
	key := testAuthKey(t)
	l := startAuthServer(t, ServerOptions{AuthKey: key})
	alice := dialMuxPipe(t, l, Options{Token: mintToken(t, key, "alice", auth.OpsClient)})
	mallory := dialMuxPipe(t, l, Options{Token: mintToken(t, key, "mallory", auth.OpsClient)})

	raw, pkg := buildRaw(t, 3)
	if _, err := alice.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	if _, err := mallory.Fetch(context.Background(), pkg.ID); !errors.Is(err, broker.ErrUnauthorized) {
		t.Fatalf("imposter Fetch err = %v, want ErrUnauthorized", err)
	}
	if _, err := mallory.Remove(context.Background(), pkg.ID); !errors.Is(err, broker.ErrUnauthorized) {
		t.Fatalf("imposter Remove err = %v, want ErrUnauthorized", err)
	}
	res, err := mallory.FetchBatch(context.Background(), []string{pkg.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !errors.Is(res[0].Err, broker.ErrUnauthorized) {
		t.Fatalf("imposter FetchBatch item err = %+v, want ErrUnauthorized", res)
	}
	if _, err := alice.Fetch(context.Background(), pkg.ID); err != nil {
		t.Fatalf("owner Fetch err = %v", err)
	}
	if held, err := alice.Remove(context.Background(), pkg.ID); err != nil || !held {
		t.Fatalf("owner Remove = %v, %v; want true", held, err)
	}
}

// TestQuotaOverload verifies per-identity admission at the wire: calls over
// the bucket answer a typed ErrOverload, a second identity is unaffected, and
// refill restores service.
func TestQuotaOverload(t *testing.T) {
	key := testAuthKey(t)
	quota := broker.NewAdmission(1, 3)
	clock := time.Unix(2_000_000, 0)
	quota.SetClock(func() time.Time { return clock })
	l := startAuthServer(t, ServerOptions{AuthKey: key, Quota: quota})
	flooder := dialMuxPipe(t, l, Options{Token: mintToken(t, key, "flooder", auth.OpsClient)})
	calm := dialMuxPipe(t, l, Options{Token: mintToken(t, key, "calm", auth.OpsClient)})

	for i := 0; i < 3; i++ {
		if _, err := flooder.Stats(context.Background()); err != nil {
			t.Fatalf("within-burst Stats #%d err = %v", i, err)
		}
	}
	if _, err := flooder.Stats(context.Background()); !errors.Is(err, broker.ErrOverload) {
		t.Fatalf("over-quota Stats err = %v, want ErrOverload", err)
	}
	if _, err := calm.Stats(context.Background()); err != nil {
		t.Fatalf("other identity sheds too: %v", err)
	}
	clock = clock.Add(2 * time.Second)
	if _, err := flooder.Stats(context.Background()); err != nil {
		t.Fatalf("post-refill Stats err = %v", err)
	}
	if quota.Shed() == 0 {
		t.Fatal("Shed() = 0, want sheds counted")
	}
}

// tlsPair mints a throwaway CA and issues a loopback server leaf plus a
// client config trusting it.
func tlsPair(tb testing.TB, mutual bool) (srvOpts ServerOptions, cliOpts Options) {
	tb.Helper()
	now := time.Now()
	ca, err := auth.NewCA("test-ca", now)
	if err != nil {
		tb.Fatal(err)
	}
	certPEM, keyPEM, err := ca.Issue("rack", []string{"127.0.0.1"}, now)
	if err != nil {
		tb.Fatal(err)
	}
	var clientCA []byte
	if mutual {
		clientCA = ca.CertPEM
	}
	srvTLS, err := auth.ServerTLS(certPEM, keyPEM, clientCA)
	if err != nil {
		tb.Fatal(err)
	}
	var cliCert, cliKey []byte
	if mutual {
		cliCert, cliKey, err = ca.Issue("client", nil, now)
		if err != nil {
			tb.Fatal(err)
		}
	}
	cliTLS, err := auth.ClientTLS(ca.CertPEM, cliCert, cliKey)
	if err != nil {
		tb.Fatal(err)
	}
	return ServerOptions{TLS: srvTLS}, Options{TLS: cliTLS}
}

// startTLSServer serves a fresh rack over loopback TCP with the given options.
func startTLSServer(tb testing.TB, opts ServerOptions) string {
	tb.Helper()
	rack := broker.New(broker.Config{Shards: 4, Workers: 2, ReapInterval: -1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Skipf("cannot listen on loopback: %v", err)
	}
	srv := NewServer(rack, opts)
	go srv.Serve(l)
	tb.Cleanup(func() {
		l.Close()
		srv.Close()
		rack.Close()
	})
	return l.Addr().String()
}

// TestFramingAutoDetectOverTLS proves the framing check survives the TLS
// wrap: a secured, authenticated server port reads the HELLO and the mux
// magic inside the encrypted stream and serves the client end to end
// (TestServerRefusesLockStep covers what it refuses there).
func TestFramingAutoDetectOverTLS(t *testing.T) {
	key := testAuthKey(t)
	srvOpts, cliOpts := tlsPair(t, false)
	srvOpts.AuthKey = key
	cliOpts.Token = mintToken(t, key, "alice", auth.OpsClient)

	m, err := DialMux(startTLSServer(t, srvOpts), cliOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	exerciseEndToEnd(t, m)
}

// TestMutualTLS verifies mTLS both ways: a certificate-bearing client is
// served, one without a certificate fails the handshake.
func TestMutualTLS(t *testing.T) {
	srvOpts, cliOpts := tlsPair(t, true)
	addr := startTLSServer(t, srvOpts)

	m, err := DialMux(addr, cliOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Stats(context.Background()); err != nil {
		t.Fatalf("mTLS Stats err = %v", err)
	}

	nakedTLS := cliOpts.TLS.Clone()
	nakedTLS.Certificates = nil
	naked, err := DialMux(addr, Options{TLS: nakedTLS})
	if err == nil {
		// The handshake runs on first I/O; force a round trip to surface it.
		_, err = naked.Stats(context.Background())
		naked.Close()
	}
	if err == nil {
		t.Fatal("certificate-less client served through mTLS, want handshake failure")
	}
}

// FuzzHello hardens the server's HELLO preamble reader (everything after the
// magic): arbitrary bytes must never panic, a truncated preamble is refused,
// and an accepted one consumes exactly its declared token, re-encodes to
// itself through writeHello, and pins either the token's verified identity
// or a typed ErrUnauthorized denial, never both.
func FuzzHello(f *testing.F) {
	key := testAuthKey(f)
	otherKey, err := auth.ParseKey("0202020202020202020202020202020202020202020202020202020202020202")
	if err != nil {
		f.Fatal(err)
	}
	rack := broker.New(broker.Config{Shards: 1, Workers: 1, ReapInterval: -1})
	srv := NewServer(rack, ServerOptions{AuthKey: key})
	f.Cleanup(func() { srv.Close(); rack.Close() })
	for _, tok := range [][]byte{
		nil,
		mintToken(f, key, "alice", auth.OpsClient),
		mintToken(f, otherKey, "mallory", auth.OpsAll),
		[]byte("not a token"),
	} {
		var hello bytes.Buffer
		if err := writeHello(&hello, tok); err != nil {
			f.Fatal(err)
		}
		f.Add(hello.Bytes()[4:])
	}
	f.Add([]byte{0xff, 0xff, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		ca := &connAuth{ctx: srv.ctx}
		complete := len(data) >= 2 && len(data) >= 2+int(binary.BigEndian.Uint16(data))
		if !srv.readHello(br, ca) {
			if complete {
				t.Fatalf("refused a complete preamble of %d bytes", len(data))
			}
			return
		}
		if !complete {
			t.Fatalf("accepted a truncated preamble of %d bytes", len(data))
		}
		n := 2 + int(binary.BigEndian.Uint16(data))
		if rest, _ := io.ReadAll(br); len(rest) != len(data)-n {
			t.Fatalf("consumed %d bytes, want the %d-byte preamble", len(data)-len(rest), n)
		}
		var hello bytes.Buffer
		if err := writeHello(&hello, data[2:n]); err != nil || !bytes.Equal(hello.Bytes()[4:], data[:n]) {
			t.Fatalf("accepted preamble does not re-encode to itself (%v)", err)
		}
		tok, verr := auth.Verify(key, data[2:n], time.Now())
		switch {
		case ca.err != nil && (ca.identity != "" || !errors.Is(ca.err, broker.ErrUnauthorized)):
			t.Fatalf("denial %v with identity %q, want a bare ErrUnauthorized", ca.err, ca.identity)
		case ca.err != nil && verr == nil:
			t.Fatalf("denied a token that verifies: %v", ca.err)
		case ca.err == nil && (verr != nil || tok.Identity != ca.identity || tok.Ops != ca.ops):
			t.Fatalf("pinned identity %q ops %v for a token that verifies as %+v (%v)", ca.identity, ca.ops, tok, verr)
		}
	})
}
