package transport

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker"
)

// TestAdminScope verifies the admin opcode sits outside the client scope: a
// client token is refused, the operator capability admits, and the answer is
// a live status read.
func TestAdminScope(t *testing.T) {
	key := testAuthKey(t)
	l := startAuthServer(t, ServerOptions{AuthKey: key})

	client := dialMuxPipe(t, l, Options{Token: mintToken(t, key, "alice", auth.OpsClient)})
	if _, err := client.Admin(context.Background(), broker.AdminRequest{Verb: broker.AdminVerbStatus}); !errors.Is(err, broker.ErrUnauthorized) {
		t.Fatalf("client-scoped Admin err = %v, want ErrUnauthorized", err)
	}

	operator := dialMuxPipe(t, l, Options{Token: mintToken(t, key, "ops", auth.OpsClient|auth.OpAdmin)})
	raw, _ := buildRaw(t, 1)
	if _, err := operator.Submit(context.Background(), raw); err != nil {
		t.Fatalf("operator Submit err = %v", err)
	}
	st, err := operator.Admin(context.Background(), broker.AdminRequest{Verb: broker.AdminVerbStatus})
	if err != nil {
		t.Fatalf("operator Admin err = %v", err)
	}
	if st.Draining || st.Held != 1 {
		t.Fatalf("status = %+v, want Draining=false Held=1", st)
	}
}

// TestAdminDrain exercises the drain lifecycle over the wire: drained racks
// refuse new submits with the typed ErrDraining but keep serving reads,
// sweeps, stats, replica traffic and further admin commands; undrain
// restores submits.
func TestAdminDrain(t *testing.T) {
	rep := newFakeReplica()
	l := startAuthServer(t, ServerOptions{Replica: rep})
	m := dialMuxPipe(t, l, Options{})

	raw, pkg := buildRaw(t, 2)
	if _, err := m.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}

	st, err := m.Admin(context.Background(), broker.AdminRequest{Verb: broker.AdminVerbDrain})
	if err != nil {
		t.Fatalf("drain err = %v", err)
	}
	if !st.Draining {
		t.Fatalf("post-drain status = %+v, want Draining=true", st)
	}

	raw2, _ := buildRaw(t, 3)
	if _, err := m.Submit(context.Background(), raw2); !errors.Is(err, broker.ErrDraining) {
		t.Fatalf("drained Submit err = %v, want ErrDraining", err)
	}
	if _, err := m.SubmitBatch(context.Background(), [][]byte{raw2}); !errors.Is(err, broker.ErrDraining) {
		t.Fatalf("drained SubmitBatch err = %v, want ErrDraining", err)
	}

	// Everything that is not a new submit keeps serving: held bottles stay
	// fetchable, stats answer, and the replica stream still applies handoff.
	if bodies, err := m.Fetch(context.Background(), pkg.ID); err != nil || len(bodies) != 0 {
		t.Fatalf("drained Fetch = %v, %v; want empty replies, nil", bodies, err)
	}
	if _, err := m.Stats(context.Background()); err != nil {
		t.Fatalf("drained Stats err = %v", err)
	}
	if n, err := m.Handoff(context.Background(), []broker.HandoffRecord{{Type: broker.RecSubmit, Payload: raw2}}); err != nil || n != 1 {
		t.Fatalf("drained Handoff = %d, %v; want 1, nil", n, err)
	}

	if st, err := m.Admin(context.Background(), broker.AdminRequest{Verb: broker.AdminVerbUndrain}); err != nil || st.Draining {
		t.Fatalf("undrain status = %+v, %v; want Draining=false", st, err)
	}
	if _, err := m.Submit(context.Background(), raw2); err != nil {
		t.Fatalf("post-undrain Submit err = %v", err)
	}
}

// TestAdminSnapshot verifies the snapshot verb: a remote error on a rack
// without durability, a fresh snapshot on one with it.
func TestAdminSnapshot(t *testing.T) {
	l := startAuthServer(t, ServerOptions{})
	m := dialMuxPipe(t, l, Options{})
	_, err := m.Admin(context.Background(), broker.AdminRequest{Verb: broker.AdminVerbSnapshot})
	if err == nil || !strings.Contains(err.Error(), "durability") {
		t.Fatalf("plain-rack snapshot err = %v, want durability error", err)
	}

	rack, err := broker.Open(broker.Config{
		Shards: 4, ReapInterval: -1,
		Durability: &broker.DurabilityConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	dl := ListenPipe()
	srv := NewServer(rack, ServerOptions{})
	go srv.Serve(dl)
	t.Cleanup(func() {
		dl.Close()
		srv.Close()
		rack.Close()
	})
	dm := dialMuxPipe(t, dl, Options{})
	raw, _ := buildRaw(t, 4)
	if _, err := dm.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	st, err := dm.Admin(context.Background(), broker.AdminRequest{Verb: broker.AdminVerbSnapshot})
	if err != nil {
		t.Fatalf("durable snapshot err = %v", err)
	}
	if st.Held != 1 {
		t.Fatalf("status.Held = %d, want 1", st.Held)
	}
}

// TestAdminQuotaReload verifies the quota verb: the admin opcode itself is
// exempt from admission, a reload takes effect without a restart, and the
// status answer reports the new limits. A rack without admission rejects the
// verb.
func TestAdminQuotaReload(t *testing.T) {
	quota := broker.NewAdmission(1, 1)
	clock := time.Unix(3_000_000, 0)
	quota.SetClock(func() time.Time { return clock })
	l := startAuthServer(t, ServerOptions{Quota: quota})
	m := dialMuxPipe(t, l, Options{})

	if _, err := m.Stats(context.Background()); err != nil {
		t.Fatalf("within-burst Stats err = %v", err)
	}
	if _, err := m.Stats(context.Background()); !errors.Is(err, broker.ErrOverload) {
		t.Fatalf("over-quota Stats err = %v, want ErrOverload", err)
	}
	// The control plane must stay reachable while the identity is shed.
	st, err := m.Admin(context.Background(), broker.AdminRequest{
		Verb: broker.AdminVerbQuota, QuotaRate: 100, QuotaBurst: 50,
	})
	if err != nil {
		t.Fatalf("quota reload err = %v", err)
	}
	if st.QuotaRate != 100 || st.QuotaBurst != 50 {
		t.Fatalf("status limits = %g/%g, want 100/50", st.QuotaRate, st.QuotaBurst)
	}
	clock = clock.Add(time.Second)
	if _, err := m.Stats(context.Background()); err != nil {
		t.Fatalf("post-reload Stats err = %v", err)
	}

	if _, err := m.Admin(context.Background(), broker.AdminRequest{Verb: 99}); err == nil {
		t.Fatal("unknown verb accepted, want error")
	}

	plain := dialMuxPipe(t, startAuthServer(t, ServerOptions{}), Options{})
	if _, err := plain.Admin(context.Background(), broker.AdminRequest{
		Verb: broker.AdminVerbQuota, QuotaRate: 5, QuotaBurst: 5,
	}); err == nil || !strings.Contains(err.Error(), "admission") {
		t.Fatalf("quota reload without admission err = %v, want admission error", err)
	}
}
