package msn

import (
	"errors"
	"fmt"
	"io"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
	"sealedbottle/internal/crypt"
)

// FriendingApp is the application layer that binds the Sealed Bottle
// protocols to a simulated node: it answers incoming requests as a
// participant, relays what should be relayed, routes replies back to
// initiators it knows about, and records established matches on both sides.
type FriendingApp struct {
	id   NodeID
	sim  *Simulator
	part *core.Participant

	initiators map[string]*core.Initiator // request ID -> local initiator state

	// PeerMatches records matches this node learned about as a participant
	// (Protocol 1 only: the participant can verify locally).
	peerMatches []PeerMatch
	// rejected counts replies the node's initiators rejected, by reason.
	rejected map[core.RejectReason]int
}

// PeerMatch records a participant-side match (Protocol 1).
type PeerMatch struct {
	// RequestID identifies the request that matched.
	RequestID string
	// Initiator is the request origin.
	Initiator NodeID
	// ChannelKey is the pairwise key derived on the participant side.
	ChannelKey crypt.Key
	// At is the simulated time the match was detected.
	At time.Time
}

// FriendingConfig configures a friending node.
type FriendingConfig struct {
	// Profile is the node's own attribute set.
	Profile *attr.Profile
	// Participant tunes the participant behaviour (protocol, matcher, ϕ).
	Participant core.ParticipantConfig
	// Rand supplies randomness for initiator/participant crypto (nil:
	// crypto/rand).
	Rand io.Reader
}

// NewFriendingApp creates the application layer for one node and registers it
// with the simulator at the given position.
func NewFriendingApp(sim *Simulator, id NodeID, pos Position, cfg FriendingConfig) (*FriendingApp, *Node, error) {
	if sim == nil {
		return nil, nil, errors.New("msn: nil simulator")
	}
	if cfg.Profile == nil || cfg.Profile.Len() == 0 {
		return nil, nil, errors.New("msn: friending node needs a non-empty profile")
	}
	app := &FriendingApp{
		id:         id,
		sim:        sim,
		initiators: make(map[string]*core.Initiator),
		rejected:   make(map[core.RejectReason]int),
	}
	pcfg := cfg.Participant
	pcfg.ID = string(id)
	if pcfg.Rand == nil {
		pcfg.Rand = cfg.Rand
	}
	pcfg.Now = sim.Now
	part, err := core.NewParticipant(cfg.Profile, pcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("msn: building participant for %q: %w", id, err)
	}
	app.part = part
	node, err := sim.AddNode(id, pos, app)
	if err != nil {
		return nil, nil, err
	}
	return app, node, nil
}

// Participant exposes the underlying protocol participant (e.g. to bind a
// dynamic location key).
func (a *FriendingApp) Participant() *core.Participant { return a.part }

// SearchOptions tunes an outgoing search.
type SearchOptions struct {
	// Protocol selects Protocol 1, 2 or 3 (zero: Protocol 1).
	Protocol core.Protocol
	// Note is an optional application payload (Protocol 1 only).
	Note []byte
	// Validity bounds the request lifetime.
	Validity time.Duration
	// TTL bounds flooding depth (zero: simulator default).
	TTL int
	// Rand supplies randomness (nil: crypto/rand).
	Rand io.Reader
}

// StartSearch builds a request for the given specification and floods it from
// this node. It returns the request ID used to correlate matches.
func (a *FriendingApp) StartSearch(spec core.RequestSpec, opts SearchOptions) (string, error) {
	init, err := core.NewInitiator(spec, core.InitiatorConfig{
		Protocol: opts.Protocol,
		Origin:   string(a.id),
		Note:     opts.Note,
		Validity: opts.Validity,
		Rand:     opts.Rand,
		Now:      a.sim.Now,
	})
	if err != nil {
		return "", fmt.Errorf("msn: building initiator: %w", err)
	}
	pkg := init.Request()
	payload, err := pkg.Marshal()
	if err != nil {
		return "", fmt.Errorf("msn: marshalling request: %w", err)
	}
	a.initiators[pkg.ID] = init
	msg := &Message{
		Kind:    KindRequest,
		ID:      pkg.ID,
		Origin:  a.id,
		Payload: payload,
		TTL:     opts.TTL,
	}
	if err := a.sim.Originate(a.id, msg); err != nil {
		return "", err
	}
	return pkg.ID, nil
}

// Matches returns the matches confirmed by this node's initiators, keyed by
// request ID.
func (a *FriendingApp) Matches() map[string][]core.Match {
	out := make(map[string][]core.Match, len(a.initiators))
	for id, init := range a.initiators {
		if ms := init.Matches(); len(ms) > 0 {
			out[id] = ms
		}
	}
	return out
}

// Initiator returns the initiator state for a request started by this node.
func (a *FriendingApp) Initiator(requestID string) (*core.Initiator, bool) {
	init, ok := a.initiators[requestID]
	return init, ok
}

// PeerMatches returns the participant-side matches (Protocol 1 only).
func (a *FriendingApp) PeerMatches() []PeerMatch {
	out := make([]PeerMatch, len(a.peerMatches))
	copy(out, a.peerMatches)
	return out
}

// Rejections returns reply rejection counts by reason, across this node's
// initiators.
func (a *FriendingApp) Rejections() map[core.RejectReason]int {
	out := make(map[core.RejectReason]int, len(a.rejected))
	for k, v := range a.rejected {
		out[k] = v
	}
	return out
}

// OnMessage implements Handler: requests are answered/relayed as a
// participant; replies are processed by the local initiator they correlate
// with.
func (a *FriendingApp) OnMessage(now time.Time, node *Node, msg *Message) (bool, []*Message) {
	switch msg.Kind {
	case KindRequest:
		return a.onRequest(now, msg)
	case KindReply:
		return false, a.onReply(msg)
	default:
		return false, nil
	}
}

func (a *FriendingApp) onRequest(now time.Time, msg *Message) (bool, []*Message) {
	pkg, err := core.UnmarshalPackage(msg.Payload)
	if err != nil {
		// Malformed request: do not relay garbage.
		return false, nil
	}
	// Never re-answer our own request; still do not forward it back out
	// (neighbours already received the original broadcast).
	if _, mine := a.initiators[pkg.ID]; mine {
		return false, nil
	}
	res, err := a.part.HandleRequest(pkg)
	if err != nil {
		return false, nil
	}
	if res.Matched {
		a.peerMatches = append(a.peerMatches, PeerMatch{
			RequestID:  pkg.ID,
			Initiator:  NodeID(pkg.Origin),
			ChannelKey: res.ChannelKey,
			At:         now,
		})
	}
	var outgoing []*Message
	if res.Reply != nil {
		outgoing = append(outgoing, &Message{
			Kind:        KindReply,
			ID:          fmt.Sprintf("%s/reply/%s", pkg.ID, a.id),
			Correlate:   pkg.ID,
			Origin:      a.id,
			Destination: NodeID(pkg.Origin),
			Payload:     res.Reply.Marshal(),
		})
	}
	return res.Forward, outgoing
}

func (a *FriendingApp) onReply(msg *Message) []*Message {
	init, ok := a.initiators[msg.Correlate]
	if !ok {
		return nil
	}
	reply, err := core.UnmarshalReply(msg.Payload)
	if err != nil {
		return nil
	}
	_, reject, err := init.ProcessReply(reply)
	if err != nil {
		return nil
	}
	if reject != core.RejectNone {
		a.rejected[reject]++
	}
	return nil
}
