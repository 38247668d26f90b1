package msn

import (
	"context"
	"fmt"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/client"
	"sealedbottle/internal/core"
)

// Rendezvous is the broker surface the friending layer needs — the module's
// canonical context-first Backend. *broker.Rack (in-process), *client.Courier
// (pipelined transport) and *client.Ring (a whole cluster) all satisfy it, so
// a simulator scenario can run against the real subsystem any of those ways.
type Rendezvous = broker.Backend

// pendingRequest tracks one of this node's outstanding requests for
// broker-mode reply fetching.
type pendingRequest struct {
	id      string
	expires time.Time
}

// rendezvousSeenCap bounds the node's window of swept IDs, which drops the
// copies of a bottle more than one rack hands over; without it a long-lived
// node's sweeper would grow linear in its lifetime.
const rendezvousSeenCap = 4096

// initRendezvous builds the node's sweeper, wiring the participant's
// evaluation loop to this app's bookkeeping. Called once from NewFriendingApp
// after the participant exists.
func (a *FriendingApp) initRendezvous() error {
	sweeper, err := client.NewSweeper(a.rendezvous, client.SweeperConfig{
		Participant:   a.part,
		Primes:        a.sweepPrimes,
		SeenCap:       rendezvousSeenCap,
		ExcludeOrigin: string(a.id),
		// Never evaluate our own bottles: the broker's origin exclusion
		// already drops them, but a node could share an origin string.
		Skip: func(requestID string) bool {
			_, mine := a.initiators[requestID]
			return mine
		},
		OnResult: func(pkg *core.RequestPackage, res *core.HandleResult) {
			if res.Matched {
				a.peerMatches = append(a.peerMatches, PeerMatch{
					RequestID:  pkg.ID,
					Initiator:  NodeID(pkg.Origin),
					ChannelKey: res.ChannelKey,
					At:         a.tickNow,
				})
			}
		},
	})
	if err != nil {
		return fmt.Errorf("msn: building sweeper for %q: %w", a.id, err)
	}
	a.sweeper = sweeper
	return nil
}

// startRendezvousSearch submits the request bottle to the broker instead of
// flooding it through the ad-hoc network. StartSearch is a synchronous
// simulator-driven call with no caller context, so the submission runs under
// context.Background(); the cancelable path is RendezvousTick.
func (a *FriendingApp) startRendezvousSearch(payload []byte) error {
	if _, err := a.rendezvous.Submit(context.Background(), payload); err != nil {
		return fmt.Errorf("msn: submitting request to rendezvous: %w", err)
	}
	return nil
}

// RendezvousTick performs one sweep-and-fetch cycle against the broker: the
// courier SDK's sweeper screens, evaluates and replies with this node's
// participant machinery, then replies for this node's own outstanding
// requests are drained in one batched round trip. Scenarios typically
// register it with Simulator.Every or AttachRendezvous so cycles happen on
// the simulated clock. Canceling ctx stops the cycle mid-sweep (the sweeper
// queues undelivered replies for the next tick) — the hook that lets a node
// loop shut down without waiting out a slow broker.
func (a *FriendingApp) RendezvousTick(ctx context.Context, now time.Time) error {
	if a.sweeper == nil {
		return fmt.Errorf("msn: node %q has no rendezvous configured", a.id)
	}
	a.tickNow = now
	if _, err := a.sweeper.Tick(ctx); err != nil {
		return fmt.Errorf("msn: sweeping rendezvous: %w", err)
	}
	// Drain replies for this node's outstanding requests, dropping requests
	// whose bottles have expired off the rack — no further replies can arrive
	// for those. A fetch error (bottle reaped early, transport hiccup) is not
	// fatal; the request stays pending until its expiry.
	kept := a.pending[:0]
	for _, pr := range a.pending {
		if !pr.expires.IsZero() && now.After(pr.expires) {
			continue
		}
		kept = append(kept, pr)
	}
	a.pending = kept
	ids := make([]string, len(a.pending))
	for i, pr := range a.pending {
		ids[i] = pr.id
	}
	for i, res := range client.FetchMany(ctx, a.rendezvous, ids) {
		if res.Err != nil {
			continue
		}
		init := a.initiators[ids[i]]
		for _, raw := range res.Replies {
			reply, err := core.UnmarshalReply(raw)
			if err != nil {
				continue
			}
			_, reject, err := init.ProcessReply(reply)
			if err != nil {
				continue
			}
			if reject != core.RejectNone {
				a.rejected[reject]++
			}
		}
	}
	return ctx.Err()
}

// AttachRendezvous registers one periodic hook that ticks every app against
// the broker in deterministic (registration) order; scenarios call it once
// after building their nodes. The context bounds every tick the hook runs —
// cancel it to stop broker traffic while the simulator keeps going.
func AttachRendezvous(ctx context.Context, sim *Simulator, interval time.Duration, apps ...*FriendingApp) error {
	if sim == nil {
		return fmt.Errorf("msn: nil simulator")
	}
	return sim.Every(interval, func(now time.Time) {
		for _, app := range apps {
			if app != nil && app.sweeper != nil {
				_ = app.RendezvousTick(ctx, now)
			}
		}
	})
}
