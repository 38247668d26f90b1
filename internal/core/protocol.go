package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/crypt"
)

// Protocol identifies one of the three privacy-preserving profile matching
// protocols of Section III-E.
type Protocol uint8

const (
	// Protocol1 seals confirmation information with the secret, so matching
	// users can verify locally and only they reply (verifiable, PPL1 for the
	// initiator's profile against matching users in the HBC model).
	Protocol1 Protocol = iota + 1
	// Protocol2 removes the confirmation, so candidates reply with an
	// acknowledgement per candidate key and only the initiator learns who
	// matched (protects the request even against dictionary-holding
	// participants).
	Protocol2
	// Protocol3 additionally bounds the entropy a candidate is willing to
	// risk exposing to a malicious initiator (ϕ-entropy privacy).
	Protocol3
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Protocol1:
		return "protocol1"
	case Protocol2:
		return "protocol2"
	case Protocol3:
		return "protocol3"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// SealMode returns the sealing mode the protocol uses for requests.
func (p Protocol) SealMode() SealMode {
	if p == Protocol1 {
		return SealModeVerifiable
	}
	return SealModeOpaque
}

// Valid reports whether p is a defined protocol.
func (p Protocol) Valid() bool { return p >= Protocol1 && p <= Protocol3 }

// ackMagic prefixes every acknowledgement payload; it is the "predefined ack
// information" of the protocols.
const ackMagic = "SBACK1"

// ackPayload is what a replier seals under a candidate session key x_j:
// the ack marker, a fresh session key y, and (optionally, Protocol 1 only)
// the intersection cardinality the replier is willing to disclose.
type ackPayload struct {
	Y           crypt.Key
	Cardinality uint8
}

func encodeAck(a ackPayload) []byte {
	out := make([]byte, 0, len(ackMagic)+crypt.KeySize+1)
	out = append(out, ackMagic...)
	out = append(out, a.Y[:]...)
	out = append(out, a.Cardinality)
	return out
}

func decodeAck(plaintext []byte) (ackPayload, error) {
	if len(plaintext) != len(ackMagic)+crypt.KeySize+1 {
		return ackPayload{}, errors.New("core: malformed ack payload")
	}
	if string(plaintext[:len(ackMagic)]) != ackMagic {
		return ackPayload{}, errors.New("core: ack marker mismatch")
	}
	y, err := crypt.KeyFromBytes(plaintext[len(ackMagic) : len(ackMagic)+crypt.KeySize])
	if err != nil {
		return ackPayload{}, err
	}
	return ackPayload{Y: y, Cardinality: plaintext[len(plaintext)-1]}, nil
}

// Reply is a participant's answer to a request: one sealed acknowledgement
// per candidate session key (Protocol 1 repliers always send exactly one).
type Reply struct {
	// RequestID echoes the request being answered.
	RequestID string
	// From identifies the replier for reply routing and rate limiting.
	From string
	// SentAt is when the replier produced the reply; the initiator uses it to
	// enforce the response-time window against dictionary attackers.
	SentAt time.Time
	// Acks holds the sealed acknowledgements E_{x_j}(ack, y).
	Acks [][]byte
}

// Marshal encodes the reply for transport.
func (r *Reply) Marshal() []byte {
	buf := make([]byte, 0, r.WireSize())
	buf = append(buf, "SBRP"...)
	buf = appendString(buf, r.RequestID)
	buf = appendString(buf, r.From)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.SentAt.UnixNano()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Acks)))
	for _, a := range r.Acks {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

// UnmarshalReply decodes a reply from its wire form.
func UnmarshalReply(data []byte) (*Reply, error) {
	rd := &byteReader{data: data}
	magic, err := rd.bytes(4)
	if err != nil || string(magic) != "SBRP" {
		return nil, errors.New("core: malformed reply: bad magic")
	}
	r := &Reply{}
	if r.RequestID, err = rd.string(); err != nil {
		return nil, fmt.Errorf("core: malformed reply: %w", err)
	}
	if r.From, err = rd.string(); err != nil {
		return nil, fmt.Errorf("core: malformed reply: %w", err)
	}
	sent, err := rd.uint64()
	if err != nil {
		return nil, fmt.Errorf("core: malformed reply: %w", err)
	}
	r.SentAt = time.Unix(0, int64(sent)).UTC()
	count, err := rd.uint16()
	if err != nil {
		return nil, fmt.Errorf("core: malformed reply: %w", err)
	}
	r.Acks = make([][]byte, count)
	for i := range r.Acks {
		n, err := rd.uint32()
		if err != nil {
			return nil, fmt.Errorf("core: malformed reply: %w", err)
		}
		raw, err := rd.bytes(int(n))
		if err != nil {
			return nil, fmt.Errorf("core: malformed reply: %w", err)
		}
		r.Acks[i] = append([]byte(nil), raw...)
	}
	if rd.remaining() != 0 {
		return nil, errors.New("core: malformed reply: trailing bytes")
	}
	return r, nil
}

// WireSize returns the encoded size of the reply in bytes: the length of
// Marshal's output, field by field in its order.
func (r *Reply) WireSize() int {
	n := 4 + 2 + len(r.RequestID) + 2 + len(r.From) + 8 + 2 // magic, IDs, sent, count
	for _, a := range r.Acks {
		n += 4 + len(a)
	}
	return n
}

// DefaultReplyWindow is how long after creating a request the initiator
// accepts replies; slower repliers are presumed to be running a dictionary
// attack (Section III-E2) and are excluded.
const DefaultReplyWindow = 30 * time.Second

// DefaultMaxReplyAcks is the maximum acknowledgement-set cardinality the
// initiator accepts from a single replier; larger sets indicate a dictionary
// attacker enumerating attribute combinations.
const DefaultMaxReplyAcks = 16

// InitiatorConfig configures request construction and reply screening.
type InitiatorConfig struct {
	// Protocol selects Protocol 1, 2 or 3. Zero defaults to Protocol1.
	Protocol Protocol
	// Origin identifies the initiator for reply routing.
	Origin string
	// Note is an optional application payload (Protocol 1 only).
	Note []byte
	// Validity bounds request lifetime (zero: DefaultValidity).
	Validity time.Duration
	// ReplyWindow bounds acceptable reply latency (zero: DefaultReplyWindow).
	ReplyWindow time.Duration
	// MaxReplyAcks bounds the acknowledgement-set cardinality per replier
	// (zero: DefaultMaxReplyAcks).
	MaxReplyAcks int
	// Rand supplies randomness (nil: crypto/rand).
	Rand io.Reader
	// Now supplies the clock (nil: time.Now).
	Now func() time.Time
}

// Match records a confirmed matching user on the initiator side, including
// the established pairwise channel key.
type Match struct {
	// Peer is the matching user's identifier.
	Peer string
	// ChannelKey is the pairwise secure-channel key derived from (x, y).
	ChannelKey crypt.Key
	// Y is the peer's session-key contribution.
	Y crypt.Key
	// Cardinality is the intersection cardinality the peer disclosed
	// (Protocol 1 replies only; zero otherwise).
	Cardinality int
	// ReceivedAt is when the initiator accepted the reply.
	ReceivedAt time.Time
}

// RejectReason classifies why the initiator discarded a reply.
type RejectReason string

// Reply rejection reasons.
const (
	RejectNone          RejectReason = ""
	RejectWrongRequest  RejectReason = "wrong-request-id"
	RejectLate          RejectReason = "reply-outside-time-window"
	RejectTooManyAcks   RejectReason = "ack-set-cardinality-exceeded"
	RejectNoValidAck    RejectReason = "no-ack-decrypted-with-x"
	RejectDuplicatePeer RejectReason = "duplicate-reply-from-peer"
)

// Initiator drives one friending request end to end: it builds the request
// package, screens replies (time window, cardinality threshold), confirms
// matches by decrypting acknowledgements with x, and derives channel keys.
type Initiator struct {
	cfg     InitiatorConfig
	spec    RequestSpec
	built   *BuiltRequest
	now     func() time.Time
	matches []Match
	replied map[string]struct{}
}

// NewInitiator validates the configuration, builds the request package and
// returns an initiator ready to broadcast.
func NewInitiator(spec RequestSpec, cfg InitiatorConfig) (*Initiator, error) {
	if cfg.Protocol == 0 {
		cfg.Protocol = Protocol1
	}
	if !cfg.Protocol.Valid() {
		return nil, fmt.Errorf("core: invalid protocol %d", cfg.Protocol)
	}
	if cfg.ReplyWindow <= 0 {
		cfg.ReplyWindow = DefaultReplyWindow
	}
	if cfg.MaxReplyAcks <= 0 {
		cfg.MaxReplyAcks = DefaultMaxReplyAcks
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	built, err := BuildRequest(spec, BuildOptions{
		Mode:     cfg.Protocol.SealMode(),
		Note:     cfg.Note,
		Validity: cfg.Validity,
		Origin:   cfg.Origin,
		Rand:     cfg.Rand,
		Now:      now,
	})
	if err != nil {
		return nil, err
	}
	return &Initiator{
		cfg:     cfg,
		spec:    spec,
		built:   built,
		now:     now,
		replied: make(map[string]struct{}),
	}, nil
}

// Request returns the public request package to broadcast.
func (i *Initiator) Request() *RequestPackage { return i.built.Package.Clone() }

// Protocol returns the protocol variant in use.
func (i *Initiator) Protocol() Protocol { return i.cfg.Protocol }

// GroupKey returns the initiator's session key x, which doubles as the group
// key for secure intra-community communication among all matching users
// (Section III-F).
func (i *Initiator) GroupKey() crypt.Key { return i.built.X }

// ProfileKey returns the request profile key K_t (kept local; exposed for the
// community-discovery use case and for tests).
func (i *Initiator) ProfileKey() crypt.Key { return i.built.Key }

// Matches returns the confirmed matches so far.
func (i *Initiator) Matches() []Match {
	out := make([]Match, len(i.matches))
	copy(out, i.matches)
	return out
}

// ProcessReply screens a reply per the protocol rules and, when it carries an
// acknowledgement decryptable with x, records the match and returns it.
func (i *Initiator) ProcessReply(r *Reply) (*Match, RejectReason, error) {
	if r == nil {
		return nil, RejectNone, errors.New("core: nil reply")
	}
	if r.RequestID != i.built.Package.ID {
		return nil, RejectWrongRequest, nil
	}
	if _, dup := i.replied[r.From]; dup {
		return nil, RejectDuplicatePeer, nil
	}
	now := i.now().UTC()
	deadline := i.built.Package.CreatedAt.Add(i.cfg.ReplyWindow)
	replyTime := r.SentAt
	if replyTime.IsZero() {
		replyTime = now
	}
	if replyTime.After(deadline) {
		return nil, RejectLate, nil
	}
	if len(r.Acks) == 0 || len(r.Acks) > i.cfg.MaxReplyAcks {
		return nil, RejectTooManyAcks, nil
	}
	for _, sealed := range r.Acks {
		plaintext, err := crypt.OpenVerifiable(i.built.X, sealed)
		if err != nil {
			continue
		}
		ack, err := decodeAck(plaintext)
		if err != nil {
			continue
		}
		m := Match{
			Peer:        r.From,
			Y:           ack.Y,
			ChannelKey:  crypt.CombineKeys(i.built.X, ack.Y),
			Cardinality: int(ack.Cardinality),
			ReceivedAt:  now,
		}
		i.replied[r.From] = struct{}{}
		i.matches = append(i.matches, m)
		return &m, RejectNone, nil
	}
	i.replied[r.From] = struct{}{}
	return nil, RejectNoValidAck, nil
}

// DefaultMinReplyInterval is the participant-side rate limit: a participant
// will not answer two requests from the same origin within this interval
// (the paper's DoS defence).
const DefaultMinReplyInterval = 10 * time.Second

// ParticipantConfig configures the participant/relay side.
type ParticipantConfig struct {
	// ID identifies this participant in replies.
	ID string
	// Protocol selects how requests are answered. Zero defaults to matching
	// the request's seal mode (verifiable → Protocol 1, opaque → Protocol 2).
	Protocol Protocol
	// Matcher tunes candidate enumeration.
	Matcher MatcherConfig
	// DiscloseCardinality includes the intersection cardinality in Protocol 1
	// acknowledgements.
	DiscloseCardinality bool
	// Entropy and Phi configure Protocol 3's ϕ-entropy privacy: the union of
	// the participant's own attributes used across candidate keys must stay
	// within Phi bits under the Entropy model. Both must be set for
	// Protocol 3.
	Entropy *attr.EntropyModel
	Phi     float64
	// MinReplyInterval rate-limits replies per origin (zero: default).
	MinReplyInterval time.Duration
	// Rand supplies randomness (nil: crypto/rand).
	Rand io.Reader
	// Now supplies the clock (nil: time.Now).
	Now func() time.Time
}

// HandleResult is the outcome of a participant processing a request package.
type HandleResult struct {
	// Forward is true when the participant should relay the package onwards.
	Forward bool
	// Reply, when non-nil, should be sent back to the request origin.
	Reply *Reply
	// Matched is true when the participant verified locally that it matches
	// (possible under Protocol 1 only).
	Matched bool
	// X is the initiator's session key (Protocol 1 matches only).
	X crypt.Key
	// Y is this participant's session-key contribution (when replying).
	Y crypt.Key
	// ChannelKey is the pairwise channel key (Protocol 1 matches only;
	// Protocol 2/3 participants learn it only if the initiator contacts them).
	ChannelKey crypt.Key
	// Note is the application payload from the request (Protocol 1 matches).
	Note []byte
	// Dropped explains why the request was not processed (expired,
	// duplicate, rate-limited); empty otherwise.
	Dropped string
	// Diagnostics reports the work performed.
	Diagnostics *Diagnostics
}

// Participant is the relay/candidate side of the protocols: it fast-checks
// incoming requests, enumerates candidate keys when warranted, and produces
// replies according to the configured protocol.
//
// Its memory is bounded however many requests it handles. A request is
// recognised as a duplicate across at least the last dupGeneration (4 096)
// handled requests; a replay from further back is handled again. The
// initiator's RejectDuplicatePeer and the per-origin MinReplyInterval still
// cap what such a replay can produce.
type Participant struct {
	cfg     ParticipantConfig
	matcher *Matcher
	profile *attr.Profile
	rng     io.Reader
	now     func() time.Time
	// seen and seenBefore are the two generations of the duplicate set: seen
	// fills up to dupGeneration keys, then becomes seenBefore and the old
	// seenBefore, emptied, takes its place.
	seen, seenBefore map[requestKey]struct{}
	seeds            [2]maphash.Seed
	// lastReply holds when each origin was last replied to; entries older than
	// MinReplyInterval are pruned at each generation change.
	lastReply map[string]time.Time
}

// dupGeneration is the size of one generation of a participant's duplicate
// set; at least a sweeper's seen window (client.DefaultSeenCap), so that a
// copy that comes back after leaving that window — a handoff copy arriving
// late, a page a rack re-screens after a restart — is still known.
const dupGeneration = 4096

// requestKey is what a participant keeps of a request it has handled: a
// 128-bit keyed hash of the ID, not the ID. An entry of the duplicate set
// then costs 16 bytes and holds no decoded string alive, and the random
// seeds leave no one able to make two IDs collide.
type requestKey [2]uint64

func (p *Participant) requestKey(id string) requestKey {
	return requestKey{maphash.String(p.seeds[0], id), maphash.String(p.seeds[1], id)}
}

// NewParticipant builds a participant for the given profile.
func NewParticipant(profile *attr.Profile, cfg ParticipantConfig) (*Participant, error) {
	matcher, err := NewMatcher(profile, cfg.Matcher)
	if err != nil {
		return nil, err
	}
	if cfg.Protocol != 0 && !cfg.Protocol.Valid() {
		return nil, fmt.Errorf("core: invalid protocol %d", cfg.Protocol)
	}
	if cfg.Protocol == Protocol3 && (cfg.Entropy == nil || cfg.Phi <= 0) {
		return nil, errors.New("core: Protocol 3 requires an entropy model and a positive ϕ budget")
	}
	if cfg.MinReplyInterval <= 0 {
		cfg.MinReplyInterval = DefaultMinReplyInterval
	}
	rng := cfg.Rand
	if rng == nil {
		rng = crypt.DefaultRand()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Participant{
		cfg:        cfg,
		matcher:    matcher,
		profile:    profile.Clone(),
		rng:        rng,
		now:        now,
		seen:       make(map[requestKey]struct{}),
		seenBefore: make(map[requestKey]struct{}),
		seeds:      [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()},
		lastReply:  make(map[string]time.Time),
	}, nil
}

// firstSight records a request key and reports whether it is new to the
// duplicate set. A full generation rotates out the older one and prunes the
// reply times that can no longer rate-limit anything.
func (p *Participant) firstSight(key requestKey, now time.Time) bool {
	if _, dup := p.seen[key]; dup {
		return false
	}
	if _, dup := p.seenBefore[key]; dup {
		return false
	}
	if len(p.seen) >= dupGeneration {
		clear(p.seenBefore)
		p.seen, p.seenBefore = p.seenBefore, p.seen
		for origin, last := range p.lastReply {
			if now.Sub(last) >= p.cfg.MinReplyInterval {
				delete(p.lastReply, origin)
			}
		}
	}
	p.seen[key] = struct{}{}
	return true
}

// Matcher exposes the underlying matcher (e.g. to bind a dynamic location key).
func (p *Participant) Matcher() *Matcher { return p.matcher }

// Profile returns a copy of the participant's profile.
func (p *Participant) Profile() *attr.Profile { return p.profile.Clone() }

// effectiveProtocol resolves the protocol used to answer a given request.
func (p *Participant) effectiveProtocol(pkg *RequestPackage) Protocol {
	if p.cfg.Protocol != 0 {
		return p.cfg.Protocol
	}
	if pkg.Mode == SealModeVerifiable {
		return Protocol1
	}
	return Protocol2
}

// HandleRequest processes one incoming request package end to end.
func (p *Participant) HandleRequest(pkg *RequestPackage) (*HandleResult, error) {
	if pkg == nil {
		return nil, errors.New("core: nil request package")
	}
	if err := pkg.validate(); err != nil {
		return nil, err
	}
	now := p.now().UTC()
	res := &HandleResult{}
	if pkg.Expired(now) {
		res.Dropped = "expired"
		return res, nil
	}
	if !p.firstSight(p.requestKey(pkg.ID), now) {
		res.Dropped = "duplicate"
		return res, nil
	}

	rateLimited := false
	if last, ok := p.lastReply[pkg.Origin]; ok && now.Sub(last) < p.cfg.MinReplyInterval {
		rateLimited = true
	}

	proto := p.effectiveProtocol(pkg)
	switch proto {
	case Protocol1:
		if pkg.Mode != SealModeVerifiable {
			return nil, fmt.Errorf("core: protocol 1 participant received %v request", pkg.Mode)
		}
		return p.handleVerifiable(pkg, res, now, rateLimited)
	case Protocol2, Protocol3:
		if pkg.Mode != SealModeOpaque {
			return nil, fmt.Errorf("core: %v participant received %v request", proto, pkg.Mode)
		}
		return p.handleOpaque(pkg, proto, res, now, rateLimited)
	default:
		return nil, fmt.Errorf("core: unsupported protocol %v", proto)
	}
}

// handleVerifiable implements the Protocol 1 participant: verify candidate
// keys locally; a match stops forwarding and replies with E_x(ack, y).
func (p *Participant) handleVerifiable(pkg *RequestPackage, res *HandleResult, now time.Time, rateLimited bool) (*HandleResult, error) {
	unseal, diag, err := p.matcher.TryUnseal(pkg)
	res.Diagnostics = diag
	if err != nil {
		if errors.Is(err, ErrTooManyCandidates) {
			res.Dropped = "too-many-candidates"
			res.Forward = true
			return res, nil
		}
		return nil, err
	}
	if !unseal.Matched {
		res.Forward = true
		return res, nil
	}
	res.Matched = true
	res.X = unseal.X
	res.Note = unseal.Note
	if rateLimited {
		res.Dropped = "rate-limited"
		return res, nil
	}
	y, err := crypt.NewSessionKey(p.rng)
	if err != nil {
		return nil, fmt.Errorf("core: generating y: %w", err)
	}
	cardinality := uint8(0)
	if p.cfg.DiscloseCardinality {
		c := pkg.AttributeCount()
		if diag != nil && diag.FastCheck.SubsetSizes != nil {
			// The matched vector reveals exactly which positions were owned.
			c = pkg.AttributeCount() - pkg.MaxUnknown
		}
		if c > 255 {
			c = 255
		}
		cardinality = uint8(c)
	}
	ack, err := crypt.SealVerifiable(p.rng, unseal.X, encodeAck(ackPayload{Y: y, Cardinality: cardinality}))
	if err != nil {
		return nil, fmt.Errorf("core: sealing ack: %w", err)
	}
	res.Y = y
	res.ChannelKey = crypt.CombineKeys(unseal.X, y)
	res.Reply = &Reply{
		RequestID: pkg.ID,
		From:      p.cfg.ID,
		SentAt:    now,
		Acks:      [][]byte{ack},
	}
	p.lastReply[pkg.Origin] = now
	return res, nil
}

// handleOpaque implements the Protocol 2/3 participant: it cannot verify, so
// it replies with one acknowledgement per candidate session key and keeps
// forwarding. Protocol 3 first prunes candidate vectors to stay within the
// ϕ-entropy budget.
func (p *Participant) handleOpaque(pkg *RequestPackage, proto Protocol, res *HandleResult, now time.Time, rateLimited bool) (*HandleResult, error) {
	res.Forward = true
	vectors, diag, err := p.matcher.CandidateVectors(pkg)
	res.Diagnostics = diag
	if err != nil {
		if errors.Is(err, ErrTooManyCandidates) {
			res.Dropped = "too-many-candidates"
			return res, nil
		}
		return nil, err
	}
	if len(vectors) == 0 {
		return res, nil
	}
	if proto == Protocol3 {
		vectors = p.selectWithinBudget(vectors)
		if len(vectors) == 0 {
			res.Dropped = "phi-budget-exhausted"
			return res, nil
		}
	}
	if rateLimited {
		res.Dropped = "rate-limited"
		return res, nil
	}
	y, err := crypt.NewSessionKey(p.rng)
	if err != nil {
		return nil, fmt.Errorf("core: generating y: %w", err)
	}
	seenKeys := make(map[crypt.Key]struct{}, len(vectors))
	acks := make([][]byte, 0, len(vectors))
	for _, cv := range vectors {
		k, err := cv.Digests.Key()
		if err != nil {
			continue
		}
		if _, dup := seenKeys[k]; dup {
			continue
		}
		seenKeys[k] = struct{}{}
		plaintext, err := crypt.OpenOpaque(k, pkg.Sealed)
		if err != nil {
			continue
		}
		xj, _, err := decodePayload(plaintext)
		if err != nil {
			continue
		}
		ack, err := crypt.SealVerifiable(p.rng, xj, encodeAck(ackPayload{Y: y}))
		if err != nil {
			return nil, fmt.Errorf("core: sealing ack: %w", err)
		}
		acks = append(acks, ack)
	}
	if diag != nil {
		diag.KeysGenerated = len(seenKeys)
	}
	if len(acks) == 0 {
		return res, nil
	}
	res.Y = y
	res.Reply = &Reply{
		RequestID: pkg.ID,
		From:      p.cfg.ID,
		SentAt:    now,
		Acks:      acks,
	}
	p.lastReply[pkg.Origin] = now
	return res, nil
}

// selectWithinBudget keeps candidate vectors while the union of the
// participant's own attributes they expose stays within the ϕ budget
// (Protocol 3, Definition 6). Vectors exposing fewer unknown-to-initiator
// attributes are preferred.
func (p *Participant) selectWithinBudget(vectors []CandidateVector) []CandidateVector {
	attrs := p.profile.Attributes()
	exposed := attr.NewProfile()
	out := make([]CandidateVector, 0, len(vectors))
	for _, cv := range vectors {
		trial := exposed.Clone()
		for _, idx := range cv.OwnIndices {
			if idx >= 0 && idx < len(attrs) {
				trial.Add(attrs[idx])
			}
		}
		if !p.cfg.Entropy.WithinBudget(trial, p.cfg.Phi) {
			continue
		}
		exposed = trial
		out = append(out, cv)
	}
	return out
}
