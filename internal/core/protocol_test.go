package core

import (
	"fmt"
	"testing"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/crypt"
)

func newTestInitiator(t *testing.T, proto Protocol, spec RequestSpec) *Initiator {
	t.Helper()
	init, err := NewInitiator(spec, InitiatorConfig{
		Protocol: proto,
		Origin:   "alice",
		Rand:     newDetRand(7),
		Now:      fixedClock(testEpoch),
	})
	if err != nil {
		t.Fatalf("NewInitiator: %v", err)
	}
	return init
}

func newTestParticipant(t *testing.T, id string, profile *attr.Profile, cfg ParticipantConfig) *Participant {
	t.Helper()
	cfg.ID = id
	if cfg.Rand == nil {
		cfg.Rand = newDetRand(11)
	}
	if cfg.Now == nil {
		cfg.Now = fixedClock(testEpoch.Add(time.Second))
	}
	p, err := NewParticipant(profile, cfg)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	return p
}

func standardSpec() RequestSpec {
	return RequestSpec{
		Necessary:   tags("male", "columbia"),
		Optional:    tags("basketball", "chess", "golf"),
		MinOptional: 2,
	}
}

func TestProtocol1EndToEnd(t *testing.T) {
	init := newTestInitiator(t, Protocol1, standardSpec())
	pkg := init.Request()

	// Matching participant: owns both necessary and two optional attributes.
	match := newTestParticipant(t, "bob", profileOf("male", "columbia", "basketball", "golf", "cooking"),
		ParticipantConfig{Matcher: MatcherConfig{AllowCollisionSkip: true}, DiscloseCardinality: true})
	res, err := match.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched {
		t.Fatal("matching participant did not match")
	}
	if res.Forward {
		t.Error("a Protocol 1 match should stop forwarding")
	}
	if res.Reply == nil {
		t.Fatal("matching participant should reply")
	}
	if !res.X.Equal(init.GroupKey()) {
		t.Error("participant recovered wrong x")
	}

	// The initiator accepts the reply and derives the same channel key.
	m, reject, err := init.ProcessReply(res.Reply)
	if err != nil {
		t.Fatal(err)
	}
	if reject != RejectNone || m == nil {
		t.Fatalf("reply rejected: %v", reject)
	}
	if m.Peer != "bob" {
		t.Errorf("peer = %q", m.Peer)
	}
	if !m.ChannelKey.Equal(res.ChannelKey) {
		t.Error("initiator and participant derived different channel keys")
	}
	if m.Cardinality == 0 {
		t.Error("cardinality should have been disclosed")
	}
	if len(init.Matches()) != 1 {
		t.Errorf("matches = %d", len(init.Matches()))
	}

	// Non-matching participant forwards and does not reply.
	miss := newTestParticipant(t, "carol", profileOf("female", "mit", "painting"), ParticipantConfig{})
	res2, err := miss.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Matched || res2.Reply != nil {
		t.Error("non-matching participant must not match or reply")
	}
	if !res2.Forward {
		t.Error("non-matching participant should forward")
	}
}

func TestProtocol2EndToEnd(t *testing.T) {
	init := newTestInitiator(t, Protocol2, standardSpec())
	pkg := init.Request()

	match := newTestParticipant(t, "bob", profileOf("male", "columbia", "basketball", "chess"),
		ParticipantConfig{Matcher: MatcherConfig{AllowCollisionSkip: true}})
	res, err := match.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched {
		t.Error("a Protocol 2 participant cannot verify a match locally")
	}
	if !res.Forward {
		t.Error("Protocol 2 candidates keep forwarding")
	}
	if res.Reply == nil || len(res.Reply.Acks) == 0 {
		t.Fatal("candidate should reply with an acknowledgement set")
	}

	m, reject, err := init.ProcessReply(res.Reply)
	if err != nil {
		t.Fatal(err)
	}
	if reject != RejectNone || m == nil {
		t.Fatalf("reply rejected: %v", reject)
	}
	if !m.ChannelKey.Equal(crypt.CombineKeys(init.GroupKey(), res.Y)) {
		t.Error("channel key mismatch")
	}

	// A non-candidate stays silent.
	silent := newTestParticipant(t, "dave", profileOf("unrelated", "attributes", "entirely"), ParticipantConfig{})
	res2, err := silent.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reply != nil {
		if m2, reject2, _ := init.ProcessReply(res2.Reply); m2 != nil && reject2 == RejectNone {
			t.Error("a non-matching candidate's acks must not decrypt under x")
		}
	}
}

func TestProtocol2NonMatchingCandidateRejected(t *testing.T) {
	init := newTestInitiator(t, Protocol2, standardSpec())
	pkg := init.Request()

	// This user fails the threshold but may pass the fast check by collision;
	// force a reply by constructing profile overlapping partially.
	partial := newTestParticipant(t, "eve", profileOf("male", "columbia", "basketball"),
		ParticipantConfig{Matcher: MatcherConfig{AllowCollisionSkip: true}})
	res, err := partial.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reply == nil {
		// Fast check already excluded them; that is also a correct outcome.
		return
	}
	m, reject, err := init.ProcessReply(res.Reply)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil || reject == RejectNone {
		t.Error("below-threshold candidate must not be accepted as a match")
	}
}

func TestProtocol3RespectsPhiBudget(t *testing.T) {
	spec := standardSpec()
	entropy := attr.NewEntropyModel(1000)
	// Make every attribute cost 4 bits.
	for _, header := range []string{"tag"} {
		counts := map[string]float64{}
		for i := 0; i < 16; i++ {
			counts[string(rune('a'+i))] = 1
		}
		entropy.SetDistribution(attr.ValueDistribution{Header: header, Counts: counts})
	}

	init := newTestInitiator(t, Protocol3, spec)
	pkg := init.Request()

	profile := profileOf("male", "columbia", "basketball", "chess")

	// Generous budget: replies flow as in Protocol 2.
	generous := newTestParticipant(t, "bob", profile, ParticipantConfig{
		Protocol: Protocol3,
		Entropy:  entropy,
		Phi:      64,
		Matcher:  MatcherConfig{AllowCollisionSkip: true},
	})
	res, err := generous.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reply == nil {
		t.Fatal("generous budget should allow a reply")
	}
	if m, reject, _ := init.ProcessReply(res.Reply); m == nil || reject != RejectNone {
		t.Errorf("matching Protocol 3 reply rejected: %v", reject)
	}

	// Tiny budget: the candidate declines to expose anything.
	stingy := newTestParticipant(t, "carol", profile, ParticipantConfig{
		Protocol: Protocol3,
		Entropy:  entropy,
		Phi:      0.5,
		Matcher:  MatcherConfig{AllowCollisionSkip: true},
	})
	res2, err := stingy.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reply != nil {
		t.Error("a candidate with an exhausted ϕ budget must not reply")
	}
	if res2.Dropped != "phi-budget-exhausted" {
		t.Errorf("dropped reason = %q", res2.Dropped)
	}
}

func TestProtocol3RequiresEntropyModel(t *testing.T) {
	if _, err := NewParticipant(profileOf("a"), ParticipantConfig{Protocol: Protocol3}); err == nil {
		t.Error("Protocol 3 without entropy model should fail")
	}
}

func TestInitiatorRejectsLateAndOversizedReplies(t *testing.T) {
	spec := standardSpec()
	init, err := NewInitiator(spec, InitiatorConfig{
		Protocol:     Protocol2,
		Origin:       "alice",
		ReplyWindow:  10 * time.Second,
		MaxReplyAcks: 2,
		Rand:         newDetRand(3),
		Now:          fixedClock(testEpoch),
	})
	if err != nil {
		t.Fatal(err)
	}
	pkg := init.Request()

	match := newTestParticipant(t, "bob", profileOf("male", "columbia", "basketball", "chess"),
		ParticipantConfig{Matcher: MatcherConfig{AllowCollisionSkip: true}})
	res, err := match.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reply == nil {
		t.Fatal("expected a reply")
	}

	// Late reply: outside the response-time window → dictionary suspicion.
	late := *res.Reply
	late.SentAt = testEpoch.Add(time.Minute)
	if m, reject, _ := init.ProcessReply(&late); m != nil || reject != RejectLate {
		t.Errorf("late reply should be rejected, got %v", reject)
	}

	// Oversized acknowledgement set: cardinality threshold exceeded.
	big := *res.Reply
	big.Acks = [][]byte{{1}, {2}, {3}, {4}, {5}}
	if m, reject, _ := init.ProcessReply(&big); m != nil || reject != RejectTooManyAcks {
		t.Errorf("oversized reply should be rejected, got %v", reject)
	}

	// Wrong request id.
	wrong := *res.Reply
	wrong.RequestID = "bogus"
	if m, reject, _ := init.ProcessReply(&wrong); m != nil || reject != RejectWrongRequest {
		t.Errorf("wrong-id reply should be rejected, got %v", reject)
	}

	// Valid reply accepted once, duplicate rejected.
	if m, reject, _ := init.ProcessReply(res.Reply); m == nil || reject != RejectNone {
		t.Fatalf("valid reply rejected: %v", reject)
	}
	if m, reject, _ := init.ProcessReply(res.Reply); m != nil || reject != RejectDuplicatePeer {
		t.Errorf("duplicate reply should be rejected, got %v", reject)
	}

	// Nil reply is an error.
	if _, _, err := init.ProcessReply(nil); err == nil {
		t.Error("nil reply should error")
	}
}

func TestInitiatorRejectsCheaterWithoutKey(t *testing.T) {
	// A cheater who never recovered x forges an acknowledgement with a random
	// key; the initiator must not accept it (verifiability, Section IV-A3).
	init := newTestInitiator(t, Protocol1, standardSpec())

	forgedKey, _ := crypt.NewSessionKey(newDetRand(99))
	y, _ := crypt.NewSessionKey(newDetRand(100))
	forgedAck, err := crypt.SealVerifiable(newDetRand(101), forgedKey, encodeAck(ackPayload{Y: y}))
	if err != nil {
		t.Fatal(err)
	}
	reply := &Reply{RequestID: init.Request().ID, From: "mallory", SentAt: testEpoch, Acks: [][]byte{forgedAck}}
	m, reject, err := init.ProcessReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil || reject != RejectNoValidAck {
		t.Errorf("forged ack should be rejected, got %v", reject)
	}
}

func TestParticipantDropsExpiredAndDuplicates(t *testing.T) {
	init := newTestInitiator(t, Protocol1, standardSpec())
	pkg := init.Request()

	p := newTestParticipant(t, "bob", profileOf("male", "columbia", "basketball", "chess"), ParticipantConfig{
		Matcher: MatcherConfig{AllowCollisionSkip: true},
		Now:     fixedClock(testEpoch.Add(time.Second)),
	})
	// First delivery processed, duplicate dropped.
	if res, err := p.HandleRequest(pkg); err != nil || res.Dropped != "" {
		t.Fatalf("first delivery dropped: %+v err=%v", res, err)
	}
	res, err := p.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != "duplicate" {
		t.Errorf("duplicate not detected: %q", res.Dropped)
	}

	// Expired package dropped.
	lateClock := fixedClock(testEpoch.Add(DefaultValidity + time.Minute))
	p2 := newTestParticipant(t, "carol", profileOf("male"), ParticipantConfig{Now: lateClock})
	res2, err := p2.HandleRequest(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Dropped != "expired" || res2.Forward {
		t.Errorf("expired package should be dropped, got %+v", res2)
	}

	// Nil package is an error.
	if _, err := p.HandleRequest(nil); err == nil {
		t.Error("nil package should error")
	}
}

func TestParticipantRateLimitsPerOrigin(t *testing.T) {
	// Two different requests from the same origin within the rate-limit
	// interval: the second gets no reply even though it matches.
	spec := standardSpec()
	profile := profileOf("male", "columbia", "basketball", "chess")
	p := newTestParticipant(t, "bob", profile, ParticipantConfig{
		Matcher:          MatcherConfig{AllowCollisionSkip: true},
		MinReplyInterval: time.Minute,
	})

	first, err := NewInitiator(spec, InitiatorConfig{Protocol: Protocol1, Origin: "alice", Rand: newDetRand(1), Now: fixedClock(testEpoch)})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewInitiator(spec, InitiatorConfig{Protocol: Protocol1, Origin: "alice", Rand: newDetRand(2), Now: fixedClock(testEpoch)})
	if err != nil {
		t.Fatal(err)
	}

	res1, err := p.HandleRequest(first.Request())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Reply == nil {
		t.Fatal("first request should be answered")
	}
	res2, err := p.HandleRequest(second.Request())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reply != nil {
		t.Error("second request inside the rate-limit window should not be answered")
	}
	if res2.Dropped != "rate-limited" {
		t.Errorf("dropped reason = %q", res2.Dropped)
	}
}

// TestParticipantStateBounded handles more than three generations of distinct
// requests, each from an origin of its own and each answered. The duplicate
// set and the reply times must stay bounded, the last dupGeneration IDs must
// still read as duplicates, and a replay from before them is handled again.
func TestParticipantStateBounded(t *testing.T) {
	pkg := newTestInitiator(t, Protocol1, standardSpec()).Request()
	now := testEpoch.Add(time.Second)
	const step = 10 * time.Millisecond
	p := newTestParticipant(t, "bob", profileOf("male", "columbia", "basketball", "chess"), ParticipantConfig{
		Matcher:          MatcherConfig{AllowCollisionSkip: true},
		MinReplyInterval: time.Second,
		Now:              func() time.Time { return now },
	})
	handle := func(i int) *HandleResult {
		t.Helper()
		req := *pkg
		req.ID, req.Origin = fmt.Sprintf("req-%d", i), fmt.Sprintf("origin-%d", i)
		res, err := p.HandleRequest(&req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const n = 3*dupGeneration + 100
	for i := 0; i < n; i++ {
		now = now.Add(step)
		if res := handle(i); res.Reply == nil {
			t.Fatalf("request %d not answered: %q", i, res.Dropped)
		}
		if len(p.seen) > dupGeneration || len(p.seenBefore) > dupGeneration {
			t.Fatalf("after %d requests the duplicate set holds %d + %d keys", i+1, len(p.seen), len(p.seenBefore))
		}
		// Pruned at each generation change down to the origins answered
		// within MinReplyInterval, then one entry per request handled.
		if len(p.lastReply) > dupGeneration+int(time.Second/step) {
			t.Fatalf("after %d requests %d reply times are held", i+1, len(p.lastReply))
		}
	}
	for i := n - dupGeneration; i < n; i++ {
		if res := handle(i); res.Dropped != "duplicate" {
			t.Fatalf("request %d of the last %d not recognised: %q", i, dupGeneration, res.Dropped)
		}
	}
	if res := handle(0); res.Dropped != "" || res.Reply == nil {
		t.Fatalf("a replay from %d requests back was not handled again: %q", n, res.Dropped)
	}
}

func TestParticipantProtocolModeMismatch(t *testing.T) {
	init := newTestInitiator(t, Protocol2, standardSpec())
	p := newTestParticipant(t, "bob", profileOf("male"), ParticipantConfig{Protocol: Protocol1})
	if _, err := p.HandleRequest(init.Request()); err == nil {
		t.Error("Protocol 1 participant handling an opaque request should error")
	}
	init1 := newTestInitiator(t, Protocol1, standardSpec())
	p2 := newTestParticipant(t, "carol", profileOf("male"), ParticipantConfig{Protocol: Protocol2})
	if _, err := p2.HandleRequest(init1.Request()); err == nil {
		t.Error("Protocol 2 participant handling a verifiable request should error")
	}
}

func TestNewInitiatorValidation(t *testing.T) {
	if _, err := NewInitiator(RequestSpec{}, InitiatorConfig{Rand: newDetRand(1)}); err == nil {
		t.Error("empty spec should fail")
	}
	if _, err := NewInitiator(standardSpec(), InitiatorConfig{Protocol: Protocol(9), Rand: newDetRand(1)}); err == nil {
		t.Error("invalid protocol should fail")
	}
	init, err := NewInitiator(standardSpec(), InitiatorConfig{Rand: newDetRand(1)})
	if err != nil {
		t.Fatal(err)
	}
	if init.Protocol() != Protocol1 {
		t.Error("default protocol should be Protocol 1")
	}
	if init.ProfileKey().IsZero() || init.GroupKey().IsZero() {
		t.Error("keys should be populated")
	}
}

func TestAckEncodeDecode(t *testing.T) {
	y, _ := crypt.NewSessionKey(newDetRand(5))
	a := ackPayload{Y: y, Cardinality: 4}
	back, err := decodeAck(encodeAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Y.Equal(y) || back.Cardinality != 4 {
		t.Error("ack round trip failed")
	}
	if _, err := decodeAck([]byte("short")); err == nil {
		t.Error("short ack should fail")
	}
	bad := encodeAck(a)
	bad[0] = 'X'
	if _, err := decodeAck(bad); err == nil {
		t.Error("bad marker should fail")
	}
}

func TestProtocolValid(t *testing.T) {
	if !Protocol1.Valid() || !Protocol2.Valid() || !Protocol3.Valid() {
		t.Error("defined protocols should be valid")
	}
	if Protocol(0).Valid() || Protocol(9).Valid() {
		t.Error("undefined protocols should be invalid")
	}
}
