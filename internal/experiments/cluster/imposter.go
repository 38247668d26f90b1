package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sealedbottle"
	"sealedbottle/internal/core"
	"sealedbottle/internal/dataset"
)

// maxImposterTargets caps the cross-identity probe set. Probes spend the
// imposter's own admission budget, and staying under the bucket's burst keeps
// every denial typed ErrUnauthorized rather than ErrOverload — which is
// exactly what the invariant asserts.
const maxImposterTargets = 6

// floodShedTarget ends the flood once the quota has demonstrably shed this
// many whole submits; the attempt cap bounds the phase if shedding somehow
// never happens (which is itself recorded as a violation).
const (
	floodShedTarget  = 25
	floodAttemptsCap = 2000
)

// imposterPhase runs the identity attacks of the Imposter preset against a
// secured harness: cross-identity drains of the legit clients' bottles,
// under-scoped and wrong-key token probes, and a one-identity flood racing
// the per-identity admission quota. Every finding lands in the checker; the
// returned ring, cleanup and flood IDs let the fetch phase drain the
// imposter's own accepted bottles (the positive half of ownership).
func imposterPhase(ctx context.Context, h *Harness, checker *Checker, rep *Report, pool []dataset.User, cfg ScenarioConfig, legitIDs []string) (*sealedbottle.Ring, func(), []string, error) {
	topo := h.Topology()
	mallory, closeMallory, err := h.DialRing(h.Token("mallory", sealedbottle.AuthOpsAll))
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error) (*sealedbottle.Ring, func(), []string, error) {
		closeMallory()
		return nil, nil, nil, err
	}
	probe := func(op, id string, err error) {
		rep.ImposterProbes++
		switch {
		case err == nil:
			checker.Violationf("cross-identity %s of request %s succeeded for the imposter", op, sealedbottle.UntagID(id))
		case !errors.Is(err, sealedbottle.ErrUnauthorized):
			checker.Violationf("imposter %s of request %s denied with %v, want ErrUnauthorized", op, sealedbottle.UntagID(id), err)
		default:
			rep.ImposterDenied++
		}
	}

	// 1. Cross-identity drains: a fully-scoped foreign identity must be
	// denied every fetch and remove of bottles it does not own — and with the
	// typed sentinel, so rings treat the refusal as an answer, not a fault.
	targets := legitIDs
	if len(targets) > maxImposterTargets {
		targets = targets[:maxImposterTargets]
	}
	for _, id := range targets {
		_, err := mallory.Fetch(ctx, id)
		probe("fetch", id, err)
		_, err = mallory.Remove(ctx, id)
		probe("remove", id, err)
	}

	// 2. Bad tokens: an under-scoped identity and a token signed under the
	// wrong key. Both are denied at the scope/signature gate, before quota
	// accounting ever sees them.
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	_, probeRaw, err := buildFloodBottle(rng, pool, cfg)
	if err != nil {
		return fail(fmt.Errorf("building probe package: %w", err))
	}
	statsOnly, err := sealedbottle.ParseAuthOps("stats")
	if err != nil {
		return fail(err)
	}
	snoop, closeSnoop, err := h.DialRing(h.Token("snoop", statsOnly))
	if err != nil {
		return fail(err)
	}
	_, err = snoop.Submit(ctx, probeRaw)
	probe("under-scoped submit", "probe", err)
	closeSnoop()
	wrongKey, err := sealedbottle.NewAuthKey()
	if err != nil {
		return fail(err)
	}
	forged, err := sealedbottle.MintToken(wrongKey, sealedbottle.AuthToken{Identity: "clients", Ops: sealedbottle.AuthOpsAll})
	if err != nil {
		return fail(err)
	}
	forgedRing, closeForged, err := h.DialRing(forged)
	if err != nil {
		return fail(err)
	}
	_, err = forgedRing.Submit(ctx, probeRaw)
	probe("forged-token submit", "probe", err)
	closeForged()

	// 3. Flood: valid bottles as fast as one identity can push them. The
	// per-identity bucket must shed (bounding the damage) while the legit
	// ring keeps every rack healthy. Accepted bottles join the checked
	// workload — the imposter owns them and drains them in the fetch phase.
	var floodIDs []string
	floodStart := time.Now()
	for rep.FloodShed < floodShedTarget && rep.FloodSubmits < floodAttemptsCap {
		init, raw, err := buildFloodBottle(rng, pool, cfg)
		if err != nil {
			return fail(fmt.Errorf("building flood bottle: %w", err))
		}
		id, err := mallory.Submit(ctx, raw)
		rep.FloodSubmits++
		switch {
		case err == nil:
			rep.FloodAccepted++
			checker.TrackSubmit("mallory", id, init.Request())
			floodIDs = append(floodIDs, id)
		case errors.Is(err, sealedbottle.ErrOverload):
			rep.FloodShed++
		case errors.Is(err, sealedbottle.ErrUnauthorized):
			checker.Violationf("flood submit denied with ErrUnauthorized — the imposter's own valid token was refused: %v", err)
			return mallory, closeMallory, floodIDs, nil
		}
	}
	elapsed := time.Since(floodStart)
	if rep.FloodShed == 0 {
		checker.Violationf("admission quota never shed a %d-submit flood", rep.FloodSubmits)
	}
	// Damage bound: R rendezvous buckets, each refilling at QuotaRate; the
	// 1.5 slack absorbs scheduling and refill jitter. Anything past it means
	// the quota does not actually bound one identity's intake.
	bound := 1.5 * float64(topo.Replication) * (float64(topo.QuotaBurst) + topo.QuotaRate*(elapsed.Seconds()+0.2))
	if float64(rep.FloodAccepted) > bound {
		checker.Violationf("flood damage unbounded: %d bottles accepted, quota bound ≈ %.0f", rep.FloodAccepted, bound)
	}
	for _, rh := range h.Ring().Health() {
		if rh.Down {
			checker.Violationf("rack %s ejected from the legit ring after quota shedding — shedding must read as backpressure, never a fault", rh.Name)
		}
	}
	return mallory, closeMallory, floodIDs, nil
}

// buildFloodBottle builds one valid request package in the same shape the
// legit submitters use, from a random pool user's tags, so flood bottles
// exercise the same sweep path once accepted.
func buildFloodBottle(rng *rand.Rand, pool []dataset.User, cfg ScenarioConfig) (*core.Initiator, []byte, error) {
	sub, raw, err := newSubmission(rng, pool[rng.Intn(len(pool))].Tags, core.InitiatorConfig{
		Origin:      "mallory",
		Validity:    cfg.Validity,
		ReplyWindow: cfg.Validity,
		Rand:        rng,
	})
	return sub.init, raw, err
}
