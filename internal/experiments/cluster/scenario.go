package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sealedbottle"
	"sealedbottle/internal/adversary"
	"sealedbottle/internal/attr"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/client"
	"sealedbottle/internal/core"
	"sealedbottle/internal/dataset"
	"sealedbottle/internal/msn"
)

// cheaterID names the forged-reply adversary; an initiator accepting a match
// from it is an invariant violation.
const cheaterID = "cheater"

// ScenarioConfig sizes one scenario run against a Harness.
type ScenarioConfig struct {
	// Bottles is the number of acknowledged submits the run drives to
	// completion (zero: 48).
	Bottles int
	// Submitters and Sweepers are the client populations (zero: 3 each).
	Submitters int
	Sweepers   int
	// PopulationUsers sizes the synthetic corpus profiles are drawn from
	// (zero: 240).
	PopulationUsers int
	// Seed makes the population, specs, churn and loss deterministic.
	Seed int64
	// Validity bounds request lifetime and the initiator's reply window; it
	// must outlast the run so nothing expires mid-scenario (zero: 10m).
	Validity time.Duration
	// SweepLimit caps bottles per sweep tick (zero: 32).
	SweepLimit int
	// DrainTimeout bounds the drain phase: how long the run waits for every
	// expected evaluation and every pending reply to land once injected
	// faults stop (zero: 30s).
	DrainTimeout time.Duration
	// SeverRack, when positive, kills rack number SeverRack (1-based) with
	// SIGKILL semantics once half the bottles are acknowledged. Requires a
	// replicated topology — at R=1 the dead rack's bottles are simply gone
	// and the exactly-once invariant cannot hold.
	SeverRack int
	// Batch is how many bottles a submitter sends per round trip: above one
	// it uses SubmitBatch and retries only the items the cluster refused
	// (zero: 1, one Submit per bottle).
	Batch int
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Bottles <= 0 {
		c.Bottles = 48
	}
	if c.Submitters <= 0 {
		c.Submitters = 3
	}
	if c.Sweepers <= 0 {
		c.Sweepers = 3
	}
	if c.PopulationUsers <= 0 {
		c.PopulationUsers = 240
	}
	if c.Validity <= 0 {
		c.Validity = 10 * time.Minute
	}
	if c.SweepLimit <= 0 {
		c.SweepLimit = 32
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	return c
}

// Report is the outcome of one scenario run: what the clients did, what the
// adversaries achieved, and every invariant violation the checker derived.
type Report struct {
	// Scenario, topology and population echo the run's shape.
	Scenario        string
	Racks           int
	Replication     int
	PopulationUsers int
	Submitters      int
	Sweepers        int

	// Bottles is the number of acknowledged submits; SubmitRetries counts
	// submit calls the access link rejected (offline or lost) before an ack.
	Bottles       int
	SubmitRetries int

	// SeveredRack names the rack killed mid-run, if any.
	SeveredRack string

	// Sweeps is the number of sweep ticks across all sweepers; Ticks sums
	// their per-tick stats (Duplicates is the replica copies the Sweeper
	// itself collapsed — nonzero only on degraded direct-replica sweeps).
	Sweeps int
	Ticks  sealedbottle.TickStats

	// ExpectedEvaluations is how many (sweeper, bottle) evaluations the
	// residue prefilter promised; Drained reports whether all of them (and
	// all pending replies) landed before DrainTimeout.
	ExpectedEvaluations int
	Drained             bool

	// FetchedReplies and AcceptedMatches summarize the fetch phase;
	// accepted matches are genuineness-checked against the ground truth.
	FetchedReplies  int
	AcceptedMatches int

	// Adversary counters (adversarial scenarios only).
	ForgedPosts          int
	RejectedForgeries    int
	DictionaryAttempts   int
	DictionaryRecoveries int
	DictionaryWork       int

	// Imposter counters (imposter scenarios only). Probes are cross-identity
	// fetch/remove attempts plus bad-token operations, every one of which
	// must come back errors.Is(ErrUnauthorized); the flood counters track the
	// quota race (accepted is bounded by the bucket, shed must be nonzero).
	ImposterProbes int
	ImposterDenied int
	FloodSubmits   int
	FloodAccepted  int
	FloodShed      int

	// ReplyLatency, SubmitLatency and SweepLatency condense the round-trip
	// times of every reply post, submit call and sweep call the clients
	// pushed through their access links (p50/p95/p99 per scenario).
	ReplyLatency  LatencySummary
	SubmitLatency LatencySummary
	SweepLatency  LatencySummary

	// Elapsed is the wall-clock run time; ClusterStats snapshots the ring's
	// aggregated counters after the run.
	Elapsed      time.Duration
	ClusterStats sealedbottle.Stats

	// Violations is every invariant violation; empty means the run passed.
	Violations []string
}

// addTicks folds one tick's stats into the report totals.
func addTicks(sum *sealedbottle.TickStats, st sealedbottle.TickStats) {
	sum.Swept += st.Swept
	sum.Evaluated += st.Evaluated
	sum.Matches += st.Matches
	sum.Replies += st.Replies
	sum.ReplyErrors += st.ReplyErrors
	sum.Duplicates += st.Duplicates
	sum.Resyncs += st.Resyncs
	sum.Scanned += st.Scanned
	sum.Rejected += st.Rejected
	sum.Truncated = sum.Truncated || st.Truncated
}

// submission is one acknowledged submit held by its initiator for the fetch
// phase.
type submission struct {
	init *core.Initiator
	spec core.RequestSpec
	id   string
}

// DrainFetch drains replies for ids, retrying items the cluster shed under
// the per-identity admission quota — ErrOverload is deferred work the caller
// backs off on, never a failure — until nothing is shed or the deadline
// passes. A shed round can still be a partial drain (the ring hands back
// whatever the non-shed replicas yielded), so replies accumulate across
// rounds, collapsing the byte-identical copies replication produces. Run's
// fetch phases, the submitters' and the imposter's, drain through it.
func DrainFetch(ctx context.Context, b sealedbottle.Backend, ids []string, deadline time.Time) []sealedbottle.FetchResult {
	results := make([]sealedbottle.FetchResult, len(ids))
	seen := make([]map[string]struct{}, len(ids))
	merge := func(i int, fr sealedbottle.FetchResult) {
		if seen[i] == nil {
			seen[i] = make(map[string]struct{})
		}
		for _, rep := range fr.Replies {
			if _, dup := seen[i][string(rep)]; dup {
				continue
			}
			seen[i][string(rep)] = struct{}{}
			results[i].Replies = append(results[i].Replies, rep)
		}
		results[i].Err = fr.Err
	}
	for i, fr := range sealedbottle.FetchMany(ctx, b, ids) {
		merge(i, fr)
	}
	for {
		var retry []int
		for i := range results {
			if results[i].Err != nil && errors.Is(results[i].Err, sealedbottle.ErrOverload) {
				retry = append(retry, i)
			}
		}
		if len(retry) == 0 || ctx.Err() != nil || time.Now().After(deadline) {
			return results
		}
		time.Sleep(20 * time.Millisecond)
		retryIDs := make([]string, len(retry))
		for j, i := range retry {
			retryIDs[j] = ids[i]
		}
		for j, fr := range sealedbottle.FetchMany(ctx, b, retryIDs) {
			merge(retry[j], fr)
		}
	}
}

// submitRound races raws in through l, one Submit for a single bottle and
// one SubmitBatch for several, and returns an outcome per bottle; a failed
// call fails every item.
func submitRound(ctx context.Context, l *link, raws [][]byte) []sealedbottle.SubmitResult {
	if len(raws) == 1 {
		id, err := l.Submit(ctx, raws[0])
		return []sealedbottle.SubmitResult{{ID: id, Err: err}}
	}
	results, err := l.SubmitBatch(ctx, raws)
	if err != nil || len(results) != len(raws) {
		if err == nil {
			err = fmt.Errorf("cluster: %d submit results for %d bottles", len(results), len(raws))
		}
		results = make([]sealedbottle.SubmitResult, len(raws))
		for i := range results {
			results[i].Err = err
		}
	}
	return results
}

// newSubmission builds one request in the shape every scenario bottle has:
// five of tags drawn by rng, one necessary and four optional with β=2.
func newSubmission(rng *rand.Rand, tags []string, icfg core.InitiatorConfig) (submission, []byte, error) {
	attrs := make([]attr.Attribute, 0, 5)
	for _, j := range rng.Perm(len(tags))[:5] {
		attrs = append(attrs, attr.MustNew(attr.HeaderTag, tags[j]))
	}
	spec := core.RequestSpec{Necessary: attrs[:1], Optional: attrs[1:], MinOptional: 2}
	init, err := core.NewInitiator(spec, icfg)
	if err != nil {
		return submission{}, nil, fmt.Errorf("build initiator: %w", err)
	}
	raw, err := init.Request().Marshal()
	if err != nil {
		return submission{}, nil, fmt.Errorf("marshal request: %w", err)
	}
	return submission{init: init, spec: spec}, raw, nil
}

// Run drives one scenario against the harness: a Zipf-skewed population is
// generated, sweeper clients tick the real ring through their (possibly
// churning, possibly lossy) access links, submitter clients race bottles in
// under the preset's arrival shape, adversaries attack the live wire when
// armed, a rack may be severed mid-run — and afterwards the checker derives
// the end-to-end invariants from what the clients observed.
func Run(ctx context.Context, h *Harness, preset Preset, cfg ScenarioConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	topo := h.Topology()
	if preset.Imposter && !h.Secured() {
		return nil, fmt.Errorf("cluster: the %q scenario needs a Secured topology (identity attacks are meaningless without token verification)", preset.Name)
	}
	if cfg.SeverRack > 0 {
		if topo.Replication < 2 || topo.Racks < 2 {
			return nil, fmt.Errorf("cluster: severing a rack requires a replicated topology (have %d racks, R=%d)", topo.Racks, topo.Replication)
		}
		if cfg.SeverRack > topo.Racks {
			return nil, fmt.Errorf("cluster: rack %d out of range (have %d racks)", cfg.SeverRack, topo.Racks)
		}
	}
	start := time.Now()

	corpus := dataset.Generate(dataset.Params{
		Users:             cfg.PopulationUsers,
		TagVocabulary:     preset.TagVocabulary,
		KeywordVocabulary: 2_000,
		MeanTags:          7,
		MaxTags:           12,
		ZipfExponent:      preset.ZipfExponent,
		Seed:              cfg.Seed,
	})
	// The spec shape below needs 1 necessary + 4 optional attributes, so only
	// users with at least 5 tags submit or sweep. Sweeper k adopts pool[k]'s
	// full profile, and submitters draw specs from pool users' tags: every
	// bottle built from pool[k]'s tags is ground-truth matched by sweeper k.
	var pool []dataset.User
	for _, u := range corpus.Users {
		if len(u.Tags) >= 5 {
			pool = append(pool, u)
		}
	}
	if len(pool) < cfg.Sweepers+1 {
		return nil, fmt.Errorf("cluster: population too small: only %d users with ≥5 tags", len(pool))
	}

	checker := NewChecker()
	ring := h.Ring()
	rep := &Report{
		Scenario:        preset.Name,
		Racks:           topo.Racks,
		Replication:     topo.Replication,
		PopulationUsers: cfg.PopulationUsers,
		Submitters:      cfg.Submitters,
		Sweepers:        cfg.Sweepers,
	}

	// --- Sweeper clients -------------------------------------------------
	type sweeperRun struct {
		id      string
		link    *link
		sweeper *sealedbottle.Sweeper
		flushed atomic.Bool
	}
	var (
		statsMu      sync.Mutex
		drainStarted atomic.Bool
	)
	replyLat, submitLat, sweepLat := &latencies{}, &latencies{}, &latencies{}
	sweeperProfiles := make(map[string]*attr.Profile, cfg.Sweepers)
	sweepers := make([]*sweeperRun, cfg.Sweepers)
	for k := 0; k < cfg.Sweepers; k++ {
		id := fmt.Sprintf("sweeper-%d", k)
		profile := pool[k].TagProfile()
		sweeperProfiles[id] = profile
		part, err := core.NewParticipant(profile, core.ParticipantConfig{
			ID:               id,
			Matcher:          core.MatcherConfig{AllowCollisionSkip: true},
			MinReplyInterval: time.Nanosecond,
			Rand:             rand.New(rand.NewSource(cfg.Seed + int64(100+k))),
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: sweeper %d: %w", k, err)
		}
		checker.RegisterSweeper(id, part.Matcher().ResidueSet(core.DefaultPrime))
		var backend sealedbottle.Backend = ring
		if preset.DirectReplicaSweep && topo.Racks > 1 {
			backend = &directSweep{Backend: ring, harness: h}
		}
		l := newLink(backend, checker, preset.LossRate, cfg.Seed+int64(200+k))
		l.replyLat, l.sweepLat = replyLat, sweepLat
		sid := id
		sw, err := sealedbottle.NewSweeper(l, sealedbottle.SweeperConfig{
			Participant: part,
			Limit:       cfg.SweepLimit,
			SeenCap:     min(4*cfg.Bottles+256, sealedbottle.MaxSeenCap),
			OnResult: func(pkg *core.RequestPackage, hr *core.HandleResult) {
				checker.ObserveEvaluation(sid, pkg.ID, hr.Dropped)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: sweeper %d: %w", k, err)
		}
		sweepers[k] = &sweeperRun{id: id, link: l, sweeper: sw}
	}

	// halt stops one set of background actors: it closes their stop channel
	// and waits for them to return.
	halt := func(stop chan struct{}, wg *sync.WaitGroup) {
		close(stop)
		wg.Wait()
	}
	stopSweep := make(chan struct{})
	var sweepWG sync.WaitGroup
	for _, s := range sweepers {
		s := s
		sweepWG.Add(1)
		go func() {
			defer sweepWG.Done()
			for {
				select {
				case <-stopSweep:
					return
				case <-ctx.Done():
					return
				default:
				}
				st, err := s.sweeper.Tick(ctx)
				statsMu.Lock()
				rep.Sweeps++
				addTicks(&rep.Ticks, st)
				statsMu.Unlock()
				if err == nil && st.ReplyErrors == 0 && drainStarted.Load() {
					// A clean tick retried every queued reply post
					// successfully: this sweeper's pending queue is empty.
					s.flushed.Store(true)
				}
				if err != nil || st.Swept == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	// --- Submitter clients ----------------------------------------------
	subLinks := make([]*link, cfg.Submitters)
	for w := range subLinks {
		subLinks[w] = newLink(ring, checker, preset.LossRate, cfg.Seed+int64(300+w))
		subLinks[w].submitLat = submitLat
	}

	// --- Churn controller ------------------------------------------------
	// Connectivity windows come from msn random-waypoint mobility: each
	// churned client follows one node's gateway-coverage timeline, replayed
	// at 5ms per simulated second and wrapped around.
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	if preset.Churn {
		churned := append([]*link(nil), subLinks...)
		for _, s := range sweepers {
			churned = append(churned, s.link)
		}
		timeline, err := msn.ChurnTimeline(msn.ChurnModel{
			Clients: len(churned),
			Ticks:   180,
			Seed:    cfg.Seed + 1,
		})
		if err != nil {
			halt(stopSweep, &sweepWG)
			return nil, fmt.Errorf("cluster: churn timeline: %w", err)
		}
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for t := 0; ; t++ {
				col := t % len(timeline[0])
				for i, l := range churned {
					l.setOnline(timeline[i][col])
				}
				select {
				case <-churnStop:
					return
				case <-tick.C:
				}
			}
		}()
	}

	// --- Mid-run rack severing -------------------------------------------
	var (
		severOnce  sync.Once
		ackedCount atomic.Int64
	)
	maybeSever := func() {
		if cfg.SeverRack > 0 && int(ackedCount.Load()) >= cfg.Bottles/2 {
			severOnce.Do(func() {
				name, err := h.Sever(cfg.SeverRack - 1)
				if err != nil {
					checker.Violationf("%v", err)
				}
				rep.SeveredRack = name
			})
		}
	}

	// --- Adversaries ------------------------------------------------------
	advStop := make(chan struct{})
	var advWG sync.WaitGroup
	if preset.Adversarial {
		popular := corpus.PopularTags(24)
		dictAttrs := make([]attr.Attribute, len(popular))
		for i, t := range popular {
			dictAttrs[i] = attr.MustNew(attr.HeaderTag, t)
		}
		attacker, err := adversary.NewDictionaryAttacker(adversary.NewDictionary(dictAttrs...), 512)
		if err != nil {
			halt(stopSweep, &sweepWG)
			return nil, fmt.Errorf("cluster: dictionary attacker: %w", err)
		}
		advMatcher, err := core.NewMatcher(attr.NewProfile(dictAttrs...), core.MatcherConfig{
			AllowCollisionSkip:  true,
			MaxCandidateVectors: 512,
		})
		if err != nil {
			halt(stopSweep, &sweepWG)
			return nil, fmt.Errorf("cluster: adversary matcher: %w", err)
		}
		advResidues := advMatcher.ResidueSet(core.DefaultPrime)
		advRng := rand.New(rand.NewSource(cfg.Seed + 7))
		cheater := adversary.NewCheater(cheaterID, 4, advRng, nil)
		// The cheater posts through a checked link too: its acknowledged
		// forgeries enter the no-reply-loss invariant and must be drained
		// (and then rejected) by the very initiators they try to fool.
		advLink := newLink(ring, checker, 0, cfg.Seed+8)
		advWG.Add(1)
		go func() {
			defer advWG.Done()
			// The adversary remembers what it attacked the way a sweeper does:
			// a bounded window, oldest out first, or its query would grow
			// with the run.
			seen := broker.NewSeenWindow(client.DefaultSeenCap)
			var seenList []string
			for {
				select {
				case <-advStop:
					return
				case <-ctx.Done():
					return
				default:
				}
				seenList = seen.AppendNewest(seenList[:0], seen.Len())
				res, err := advLink.Sweep(ctx, sealedbottle.SweepQuery{
					Residues: []core.ResidueSet{advResidues},
					Limit:    64,
					Seen:     seenList,
				})
				if err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				for _, b := range res.Bottles {
					uid := sealedbottle.UntagID(b.ID)
					if !seen.Add(uid) {
						continue
					}
					pkg, err := core.UnmarshalPackage(b.Raw)
					if err != nil {
						continue
					}
					rec, err := attacker.RecoverRequest(pkg)
					statsMu.Lock()
					rep.DictionaryAttempts++
					if err == nil {
						rep.DictionaryWork += rec.Work
						if rec.Verified {
							rep.DictionaryRecoveries++
							if pkg.Mode == core.SealModeOpaque {
								checker.Violationf("dictionary attacker verified a recovery of opaque request %s", uid)
							}
						}
					}
					statsMu.Unlock()
					forged, err := cheater.ForgeReply(pkg)
					if err != nil {
						continue
					}
					if advLink.Reply(ctx, b.ID, forged.Marshal()) == nil {
						statsMu.Lock()
						rep.ForgedPosts++
						statsMu.Unlock()
					}
				}
				if len(res.Bottles) == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	// --- Submit phase ------------------------------------------------------
	proto := core.Protocol1
	if preset.Adversarial {
		proto = core.Protocol2
	}
	popularHead := corpus.PopularTags(8)
	quotas := make([]int, cfg.Submitters)
	for i := 0; i < cfg.Bottles; i++ {
		quotas[i%cfg.Submitters]++
	}
	submissions := make([][]submission, cfg.Submitters)
	subErrs := make([]error, cfg.Submitters)
	var subWG sync.WaitGroup
	for w := 0; w < cfg.Submitters; w++ {
		w := w
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			clientID := fmt.Sprintf("submitter-%d", w)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(400+w)))
			l := subLinks[w]
			built := 0
			build := func() (submission, []byte, error) {
				var tags []string
				switch {
				case built == 0:
					// The first bottle each submitter races in is built from
					// a sweeper's own pool user, so every run has ground-truth
					// matches regardless of how the random draws land.
					tags = pool[w%cfg.Sweepers].Tags
				case preset.Adversarial && w == 0 && len(popularHead) >= 5:
					// The flood decoy submitter: bottles built from the
					// popularity head, fully covered by the attacker's
					// dictionary and hitting nearly every prefilter.
					tags = popularHead
				default:
					tags = pool[rng.Intn(len(pool))].Tags
				}
				built++
				return newSubmission(rng, tags, core.InitiatorConfig{
					Protocol:    proto,
					Origin:      clientID,
					Validity:    cfg.Validity,
					ReplyWindow: cfg.Validity,
					Rand:        rng,
				})
			}
			acked := 0
			for acked < quotas[w] {
				for b := 0; b < max(preset.BurstSize, 1) && acked < quotas[w]; {
					n := min(cfg.Batch, quotas[w]-acked)
					b += n
					subs := make([]submission, n)
					raws := make([][]byte, n)
					for i := range subs {
						var err error
						if subs[i], raws[i], err = build(); err != nil {
							subErrs[w] = err
							return
						}
					}
					// Retry only what the cluster did not acknowledge, until
					// the whole round is held.
					for len(raws) > 0 {
						if ctx.Err() != nil {
							subErrs[w] = ctx.Err()
							return
						}
						results := submitRound(ctx, l, raws)
						keptSubs, keptRaws := subs[:0], raws[:0]
						for i, res := range results {
							if errors.Is(res.Err, sealedbottle.ErrDuplicateBottle) {
								// An earlier attempt landed and its answer
								// was lost: the bottle is held under its ID.
								res = sealedbottle.SubmitResult{ID: subs[i].init.Request().ID}
							}
							if res.Err != nil {
								keptSubs, keptRaws = append(keptSubs, subs[i]), append(keptRaws, raws[i])
								continue
							}
							sub := subs[i]
							sub.id = res.ID
							checker.TrackSubmit(clientID, sub.id, sub.init.Request())
							submissions[w] = append(submissions[w], sub)
							acked++
							ackedCount.Add(1)
							maybeSever()
						}
						subs, raws = keptSubs, keptRaws
						if len(raws) > 0 {
							statsMu.Lock()
							rep.SubmitRetries++
							statsMu.Unlock()
							time.Sleep(time.Millisecond)
						}
					}
				}
				if preset.BurstGap > 0 {
					time.Sleep(preset.BurstGap)
				}
			}
		}()
	}
	subWG.Wait()
	for _, err := range subErrs {
		if err != nil {
			halt(advStop, &advWG)
			halt(churnStop, &churnWG)
			halt(stopSweep, &sweepWG)
			return nil, fmt.Errorf("cluster: submit phase: %w", err)
		}
	}
	rep.Bottles = int(ackedCount.Load())

	// --- Imposter phase ----------------------------------------------------
	// Identity attacks against the secured ring, run after the submit phase
	// so the target set is complete and deterministic. The sweepers are still
	// ticking, so the flood's accepted bottles join the workload and must
	// satisfy the same exactly-once and no-reply-loss invariants.
	var (
		malloryRing  *sealedbottle.Ring
		malloryClose func()
		floodIDs     []string
	)
	if preset.Imposter {
		var legitIDs []string
		for _, subs := range submissions {
			for _, s := range subs {
				legitIDs = append(legitIDs, s.id)
			}
		}
		var err error
		malloryRing, malloryClose, floodIDs, err = imposterPhase(ctx, h, checker, rep, pool, cfg, legitIDs)
		if err != nil {
			halt(advStop, &advWG)
			halt(churnStop, &churnWG)
			halt(stopSweep, &sweepWG)
			return nil, fmt.Errorf("cluster: imposter phase: %w", err)
		}
		defer malloryClose()
	}

	// --- Drain phase -------------------------------------------------------
	// Adversaries and churn stop, injected faults clear, and the sweepers
	// keep ticking until every promised evaluation happened and every queued
	// reply post flushed.
	halt(advStop, &advWG)
	halt(churnStop, &churnWG)
	for _, s := range sweepers {
		s.link.clearFaults()
	}
	for _, l := range subLinks {
		l.clearFaults()
	}
	drainStarted.Store(true)
	deadline := time.Now().Add(cfg.DrainTimeout)
	for time.Now().Before(deadline) {
		if checker.AllObserved() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.Drained = checker.AllObserved()
	for allFlushed := false; !allFlushed && time.Now().Before(deadline); {
		allFlushed = true
		for _, s := range sweepers {
			if !s.flushed.Load() {
				allFlushed = false
				time.Sleep(5 * time.Millisecond)
				break
			}
		}
	}
	halt(stopSweep, &sweepWG)

	// --- Fetch phase -------------------------------------------------------
	// Every submitter drains its requests and runs each reply through its
	// initiator; accepted matches are checked against ground truth and
	// forged replies must all be rejected.
	for w, subs := range submissions {
		clientID := fmt.Sprintf("submitter-%d", w)
		ids := make([]string, len(subs))
		for i, s := range subs {
			ids[i] = s.id
		}
		results := DrainFetch(ctx, subLinks[w], ids, time.Now().Add(cfg.DrainTimeout))
		for i, fr := range results {
			if fr.Err != nil {
				checker.Violationf("fetch of request %s failed: %v", sealedbottle.UntagID(ids[i]), fr.Err)
				continue
			}
			checker.TrackFetch(clientID, ids[i], fr.Replies)
			rep.FetchedReplies += len(fr.Replies)
			for _, raw := range fr.Replies {
				r, err := core.UnmarshalReply(raw)
				if err != nil {
					continue // Violations() flags the unparseable bytes.
				}
				m, reject, err := subs[i].init.ProcessReply(r)
				if err != nil {
					checker.Violationf("request %s: processing a drained reply failed: %v", sealedbottle.UntagID(ids[i]), err)
					continue
				}
				if m != nil {
					rep.AcceptedMatches++
					if m.Peer == cheaterID {
						checker.Violationf("initiator %s accepted a forged reply from the cheater on request %s", clientID, sealedbottle.UntagID(ids[i]))
						continue
					}
					prof, ok := sweeperProfiles[m.Peer]
					switch {
					case !ok:
						checker.Violationf("initiator %s accepted a match from unknown peer %q", clientID, m.Peer)
					case !subs[i].spec.Matches(prof):
						checker.Violationf("initiator %s accepted peer %q whose profile does not satisfy the spec", clientID, m.Peer)
					}
					continue
				}
				if r.From == cheaterID && reject != core.RejectNone {
					statsMu.Lock()
					rep.RejectedForgeries++
					statsMu.Unlock()
				}
			}
		}
	}

	// The imposter drains her own flood bottles: ownership must let the owner
	// through (the positive half of the cross-identity invariant), and any
	// replies the sweepers posted to them must not be lost.
	if malloryRing != nil && len(floodIDs) > 0 {
		for i, fr := range DrainFetch(ctx, malloryRing, floodIDs, time.Now().Add(cfg.DrainTimeout)) {
			if fr.Err != nil {
				checker.Violationf("imposter fetch of her own bottle %s failed: %v", sealedbottle.UntagID(floodIDs[i]), fr.Err)
				continue
			}
			checker.TrackFetch("mallory", floodIDs[i], fr.Replies)
			rep.FetchedReplies += len(fr.Replies)
		}
	}

	rep.ExpectedEvaluations = checker.ExpectedEvaluations()
	rep.ReplyLatency = replyLat.summary()
	rep.SubmitLatency = submitLat.summary()
	rep.SweepLatency = sweepLat.summary()
	if stats, err := h.Stats(ctx); err == nil {
		rep.ClusterStats = stats
	}
	rep.Elapsed = time.Since(start)
	rep.Violations = checker.Violations()
	return rep, nil
}
