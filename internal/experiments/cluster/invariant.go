package cluster

import (
	"fmt"
	"sort"
	"sync"

	"sealedbottle"
	"sealedbottle/internal/core"
)

// Checker records what the clients of a scenario did — acknowledged submits,
// registered matchers, evaluations, reply posts, fetches — and derives the
// end-to-end invariants from it afterwards. It deliberately observes only
// the client edge (what was acknowledged, what came back): anything the
// cluster lost, duplicated or leaked in between shows up as a violation
// without the checker needing to know about racks, replicas or transports.
//
// Invariants checked:
//
//  1. Exactly-once evaluation: every acknowledged bottle whose package
//     passes a registered matcher's residue prefilter is evaluated by that
//     matcher exactly once — not zero times (a lost bottle), not twice (a
//     replica copy that slipped through ring merge, tick dedup and the seen
//     window).
//  2. Prefilter soundness: no matcher is handed a bottle its own residue
//     set rejects.
//  3. No reply loss: every reply post the cluster acknowledged is drained
//     back by the request's submitter.
//  4. No cross-client leakage: every drained reply names the request it was
//     fetched for and is byte-identical to a reply some client actually
//     posted for that request — nothing crosses between reply queues.
//
// Scenario actors add their own adversarial assertions with Violationf
// (dictionary recoveries against opaque requests, accepted forged replies,
// accepted matches from non-matching profiles).
//
// All methods are safe for concurrent use.
type Checker struct {
	mu       sync.Mutex
	bottles  map[string]*trackedBottle
	sweepers map[string]*sweeperState
	attempts map[string]map[string]struct{}
	acked    map[string]map[string]int
	fetched  map[string]map[string]int
	extra    []string
	// expected counts the (sweeper, bottle) pairs the prefilter promises and
	// pending those of them not yet evaluated, kept as submits, sweepers and
	// evaluations arrive so the drain loop's completion test is O(1).
	expected, pending int
}

// trackedBottle is one acknowledged submit.
type trackedBottle struct {
	submitter string
	pkg       *core.RequestPackage
}

// sweeperState is one registered matcher.
type sweeperState struct {
	residues core.ResidueSet
	observed map[string]int
}

// NewChecker builds an empty checker.
func NewChecker() *Checker {
	return &Checker{
		bottles:  make(map[string]*trackedBottle),
		sweepers: make(map[string]*sweeperState),
		attempts: make(map[string]map[string]struct{}),
		acked:    make(map[string]map[string]int),
		fetched:  make(map[string]map[string]int),
	}
}

// TrackSubmit records an acknowledged submit. id is the ID the cluster
// returned (possibly rack-tagged); pkg is the submitted package, used for
// prefilter-based expectations.
func (c *Checker) TrackSubmit(client, id string, pkg *core.RequestPackage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	uid := sealedbottle.UntagID(id)
	b := &trackedBottle{submitter: client, pkg: pkg}
	if _, tracked := c.bottles[uid]; !tracked {
		for _, s := range c.sweepers {
			c.promise(s, uid, b)
		}
	}
	c.bottles[uid] = b
}

// promise counts sweeper s's expected evaluation of bottle b, if any.
func (c *Checker) promise(s *sweeperState, id string, b *trackedBottle) {
	if expects(s, b) {
		c.expected++
		if s.observed[id] == 0 {
			c.pending++
		}
	}
}

// RegisterSweeper records a matcher's residue set; every acknowledged bottle
// passing it is expected to be evaluated by that sweeper exactly once.
func (c *Checker) RegisterSweeper(client string, residues core.ResidueSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &sweeperState{residues: residues, observed: make(map[string]int)}
	c.sweepers[client] = s
	for id, b := range c.bottles {
		c.promise(s, id, b)
	}
}

// ObserveEvaluation records one OnResult callback: sweeper client evaluated
// the bottle, with the participant's drop verdict (empty when processed).
func (c *Checker) ObserveEvaluation(client, bottleID, dropped string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sweepers[client]
	if !ok {
		c.extra = append(c.extra, fmt.Sprintf("evaluation by unregistered sweeper %q", client))
		return
	}
	if dropped == "duplicate" {
		// The participant's last-resort suppression fired: the same bottle
		// reached the matcher twice, so every collapsing layer above it (ring
		// replica merge, tick dedup, seen window) failed.
		c.extra = append(c.extra, fmt.Sprintf("sweeper %q was handed bottle %s twice (participant dropped the duplicate)", client, bottleID))
		return
	}
	id := sealedbottle.UntagID(bottleID)
	s.observed[id]++
	if b, ok := c.bottles[id]; ok && s.observed[id] == 1 && expects(s, b) {
		c.pending--
	}
}

// ReplyAttempt records a reply post leaving a client for a request, before
// the cluster sees it. Every byte string ever drained for that request must
// be one of these.
func (c *Checker) ReplyAttempt(requestID string, raw []byte) {
	id := sealedbottle.UntagID(requestID)
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.attempts[id]
	if !ok {
		m = make(map[string]struct{})
		c.attempts[id] = m
	}
	m[string(raw)] = struct{}{}
}

// ReplyAcked records a reply post the cluster acknowledged; it must be
// drained back by the submitter or a matched friending was lost.
func (c *Checker) ReplyAcked(requestID string, raw []byte) {
	id := sealedbottle.UntagID(requestID)
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.acked[id]
	if !ok {
		m = make(map[string]int)
		c.acked[id] = m
	}
	m[string(raw)]++
}

// TrackFetch records the replies a client drained for a request it owns.
func (c *Checker) TrackFetch(client, requestID string, replies [][]byte) {
	id := sealedbottle.UntagID(requestID)
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.bottles[id]; ok && b.submitter != client {
		c.extra = append(c.extra, fmt.Sprintf("client %q drained replies for %q's request %s", client, b.submitter, id))
	}
	m, ok := c.fetched[id]
	if !ok {
		m = make(map[string]int)
		c.fetched[id] = m
	}
	for _, raw := range replies {
		m[string(raw)]++
	}
}

// Violationf records a scenario-specific violation directly (adversarial
// assertions live in the scenario, not the checker).
func (c *Checker) Violationf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.extra = append(c.extra, fmt.Sprintf(format, args...))
}

// expects reports whether sweeper s should evaluate bottle b: the bottle's
// remainder vector passes the matcher's residue presence set — the same
// screen the racks apply server-side.
func expects(s *sweeperState, b *trackedBottle) bool {
	return b.pkg.PrefilterMatch(s.residues)
}

// AllObserved reports whether every expected (sweeper, bottle) evaluation
// has happened — the scenario drain loop's completion test.
func (c *Checker) AllObserved() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending == 0
}

// ExpectedEvaluations counts the (sweeper, bottle) pairs the prefilter
// promises — the denominator of the scenario's coverage.
func (c *Checker) ExpectedEvaluations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expected
}

// Violations derives every invariant violation from the recorded history.
// An empty slice is the scenario passing.
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	// 1+2: exactly-once evaluation per matcher, and prefilter soundness.
	for client, s := range c.sweepers {
		for id, b := range c.bottles {
			n := s.observed[id]
			switch want := expects(s, b); {
			case want && n == 0:
				out = append(out, fmt.Sprintf("sweeper %q never evaluated bottle %s (prefilter promises it)", client, id))
			case want && n > 1:
				out = append(out, fmt.Sprintf("sweeper %q evaluated bottle %s %d times", client, id, n))
			case !want && n > 0:
				out = append(out, fmt.Sprintf("sweeper %q was handed bottle %s, which its own prefilter rejects", client, id))
			}
		}
		for id := range s.observed {
			if _, known := c.bottles[id]; !known {
				out = append(out, fmt.Sprintf("sweeper %q evaluated unknown bottle %s (never acknowledged to any submitter)", client, id))
			}
		}
	}
	// 3: no acknowledged reply is lost.
	for id, posts := range c.acked {
		got := c.fetched[id]
		for raw, n := range posts {
			if got[raw] < n {
				out = append(out, fmt.Sprintf("reply loss on request %s: %d acknowledged post(s) never drained back", id, n-got[raw]))
			}
		}
	}
	// 4: no cross-client leakage: every drained reply names the request it
	// was drained for and was actually posted for it.
	for id, got := range c.fetched {
		for raw := range got {
			r, err := core.UnmarshalReply([]byte(raw))
			if err != nil {
				out = append(out, fmt.Sprintf("request %s drained an unparseable reply: %v", id, err))
				continue
			}
			if sealedbottle.UntagID(r.RequestID) != id {
				out = append(out, fmt.Sprintf("cross-request leak: request %s drained a reply addressed to %s", id, r.RequestID))
				continue
			}
			if _, ok := c.attempts[id][raw]; !ok {
				out = append(out, fmt.Sprintf("request %s drained a reply no client ever posted for it", id))
			}
		}
	}
	out = append(out, c.extra...)
	sort.Strings(out)
	return out
}
