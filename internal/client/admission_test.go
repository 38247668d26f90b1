package client

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/core"
)

// TestRackFaultAdmissionAnswers pins the satellite guarantee at its root:
// the admission answers — unauthorized and overload — are never rack faults,
// whether they arrive as bare sentinels (in-process racks), wrapped, or as
// coded remote errors off the wire.
func TestRackFaultAdmissionAnswers(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"unauthorized bare", broker.ErrUnauthorized},
		{"overload bare", broker.ErrOverload},
		{"unauthorized wrapped", fmt.Errorf("transport: token scope: %w", broker.ErrUnauthorized)},
		{"overload wrapped", fmt.Errorf("transport: identity over quota: %w", broker.ErrOverload)},
		{"unauthorized remote", &transport.RemoteError{Msg: "denied", Code: broker.CodeUnauthorized}},
		{"overload remote", &transport.RemoteError{Msg: "shed", Code: broker.CodeOverload}},
	}
	for _, tc := range cases {
		if rackFault(tc.err) {
			t.Errorf("rackFault(%s) = true, want false", tc.name)
		}
	}
	if !rackFault(errRackDown) {
		t.Error("rackFault(transport failure) = false, want true")
	}
}

// sheddingBackend answers every operation with a fixed admission error while
// armed, passing through to the rack otherwise — a rack shedding an
// identity's flood (or refusing an imposter), as seen by the ring.
type sheddingBackend struct {
	broker.Backend
	deny atomic.Pointer[error]
}

func (s *sheddingBackend) errOr() error {
	if e := s.deny.Load(); e != nil {
		return *e
	}
	return nil
}

func (s *sheddingBackend) Submit(ctx context.Context, raw []byte) (string, error) {
	if err := s.errOr(); err != nil {
		return "", err
	}
	return s.Backend.Submit(ctx, raw)
}

func (s *sheddingBackend) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	if err := s.errOr(); err != nil {
		return nil, err
	}
	return s.Backend.SubmitBatch(ctx, raws)
}

func (s *sheddingBackend) Fetch(ctx context.Context, id string) ([][]byte, error) {
	if err := s.errOr(); err != nil {
		return nil, err
	}
	return s.Backend.Fetch(ctx, id)
}

func (s *sheddingBackend) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	if err := s.errOr(); err != nil {
		return nil, err
	}
	return s.Backend.FetchBatch(ctx, ids)
}

func (s *sheddingBackend) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	if err := s.errOr(); err != nil {
		return broker.SweepResult{}, err
	}
	return s.Backend.Sweep(ctx, q)
}

// ringOverShedder builds a one-rack ring around a shedding backend with an
// aggressive fail threshold, so any misclassification ejects immediately.
func ringOverShedder(t *testing.T) (*Ring, *sheddingBackend) {
	t.Helper()
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1, RackTag: "r0"})
	shed := &sheddingBackend{Backend: rack}
	ring, err := NewRing(RingConfig{
		Backends:      []RingBackend{{Name: "rack-0", Backend: shed}},
		FailThreshold: 2,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ring.Close(); rack.Close() })
	return ring, shed
}

// TestRingOverloadNeverEjects drives far more quota sheds than the fail
// threshold through a ring and asserts the rack stays admitted with a zero
// consecutive-fault counter: shedding is backpressure, not a rack fault.
func TestRingOverloadNeverEjects(t *testing.T) {
	ring, shed := ringOverShedder(t)
	denial := error(fmt.Errorf("transport: identity %q over admission quota: %w", "flooder", broker.ErrOverload))
	shed.deny.Store(&denial)
	for i := 0; i < 20; i++ {
		raw, _ := buildRaw(t, int64(9000+i))
		if _, err := ring.Submit(context.Background(), raw); !errors.Is(err, broker.ErrOverload) {
			t.Fatalf("Submit err = %v, want ErrOverload", err)
		}
	}
	h := ring.Health()
	if h[0].Down || h[0].ConsecutiveFails != 0 {
		t.Fatalf("health after 20 sheds = %+v, want up with 0 consecutive fails", h[0])
	}
	// Prove the rack is genuinely still in rotation once the flood stops.
	shed.deny.Store(nil)
	raw, _ := buildRaw(t, 9999)
	if _, err := ring.Submit(context.Background(), raw); err != nil {
		t.Fatalf("Submit after flood = %v", err)
	}
}

// TestRingUnauthorizedNeverEjects is the same regression for the identity
// denial: an imposter hammering a rack must not take it out of the ring.
func TestRingUnauthorizedNeverEjects(t *testing.T) {
	ring, shed := ringOverShedder(t)
	denial := error(fmt.Errorf("transport: capability token rejected: %w", broker.ErrUnauthorized))
	shed.deny.Store(&denial)
	for i := 0; i < 20; i++ {
		if _, err := ring.Fetch(context.Background(), "someone-elses-bottle"); !errors.Is(err, broker.ErrUnauthorized) {
			t.Fatalf("Fetch err = %v, want ErrUnauthorized", err)
		}
	}
	h := ring.Health()
	if h[0].Down || h[0].ConsecutiveFails != 0 {
		t.Fatalf("health after 20 denials = %+v, want up with 0 consecutive fails", h[0])
	}
}

// replyShedder sheds reply posts with ErrOverload while armed and passes
// everything else through, simulating a sweeper identity over quota.
type replyShedder struct {
	broker.Backend
	shedding atomic.Bool
}

func (r *replyShedder) Reply(ctx context.Context, id string, raw []byte) error {
	if r.shedding.Load() {
		return fmt.Errorf("transport: identity %q over admission quota: %w", "sweeper", broker.ErrOverload)
	}
	return r.Backend.Reply(ctx, id, raw)
}

func (r *replyShedder) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	if r.shedding.Load() {
		errs := make([]error, len(posts))
		for i := range errs {
			errs[i] = fmt.Errorf("transport: identity %q over admission quota: %w", "sweeper", broker.ErrOverload)
		}
		return errs, nil
	}
	return r.Backend.ReplyBatch(ctx, posts)
}

// TestSweeperDefersOverloadedReplies proves quota pushback surfaces as
// deferred work: replies shed with ErrOverload are queued and delivered on a
// later tick once the bucket refills, not dropped.
func TestSweeperDefersOverloadedReplies(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	defer rack.Close()
	shed := &replyShedder{Backend: rack}
	shed.shedding.Store(true)

	raw, pkg := buildRaw(t, 1)
	if _, err := rack.Submit(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	sweeper, err := NewSweeper(shed, SweeperConfig{
		Participant: newParticipant(t, "bob", "chess", "go", "tennis"),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweeper.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Replies != 0 || st.ReplyErrors != 1 {
		t.Fatalf("shedding tick stats = %+v, want the reply deferred", st)
	}
	if got, err := rack.Fetch(context.Background(), pkg.ID); err != nil || len(got) != 0 {
		t.Fatalf("replies landed while shedding: %d, %v", len(got), err)
	}

	// Bucket refilled: the pending reply goes out on the next tick.
	shed.shedding.Store(false)
	if _, err := sweeper.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	raws, err := rack.Fetch(context.Background(), pkg.ID)
	if err != nil || len(raws) != 1 {
		t.Fatalf("Fetch after refill = %d replies, %v; want the deferred reply", len(raws), err)
	}
	if reply, err := core.UnmarshalReply(raws[0]); err != nil || reply.From != "bob" {
		t.Fatalf("deferred reply = %+v, %v", reply, err)
	}
}
