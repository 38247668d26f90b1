package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"sealedbottle"
	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
)

// threeRacks is the acceptance topology: a 3-rack ring with R=2 replication,
// every scenario test drives it in-process over the real wire protocol.
func threeRacks(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(Topology{Racks: 3, Replication: 2})
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// tcpRacks serves the same topology on loopback TCP, racks the harness does
// not own, each replica-wrapped with its peers named by address, and fronts
// them through DialHarness the way loadgen -addrs fronts bottlerack
// processes.
func tcpRacks(t *testing.T) *Harness {
	t.Helper()
	listeners := make([]net.Listener, 3)
	peers := make(map[string]string, len(listeners))
	addrs := make([]string, len(listeners))
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("cannot listen on loopback: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		listeners[i], addrs[i] = l, l.Addr().String()
		peers[addrs[i]] = addrs[i]
	}
	for i, l := range listeners {
		rack := sealedbottle.NewRack(sealedbottle.RackConfig{RackTag: fmt.Sprintf("r%d", i)})
		node := sealedbottle.WrapReplica(rack, sealedbottle.ReplicaConfig{Self: addrs[i], Peers: peers})
		srv := sealedbottle.NewServer(rack, sealedbottle.ServerOptions{Replica: node})
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close(); node.Close() })
	}
	h, err := DialHarness(addrs, 2, sealedbottle.CourierConfig{Conns: 2})
	if err != nil {
		t.Fatalf("DialHarness: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// transports are the two ways a harness reaches its racks.
var transports = []struct {
	name    string
	harness func(*testing.T) *Harness
}{
	{"pipe", threeRacks},
	{"tcp", tcpRacks},
}

// smallScenario keeps -race runs quick while exercising every phase.
func smallScenario(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Bottles:         36,
		Submitters:      3,
		Sweepers:        3,
		PopulationUsers: 240,
		Seed:            seed,
		SweepLimit:      24,
		DrainTimeout:    45 * time.Second,
	}
}

func mustPreset(t *testing.T, name string) Preset {
	t.Helper()
	p, err := PresetByName(name)
	if err != nil {
		t.Fatalf("PresetByName(%q): %v", name, err)
	}
	return p
}

func runScenario(t *testing.T, harness func(*testing.T) *Harness, name string, cfg ScenarioConfig) *Report {
	t.Helper()
	h := harness(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, h, mustPreset(t, name), cfg)
	if err != nil {
		t.Fatalf("Run(%q): %v", name, err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if !rep.Drained {
		t.Errorf("scenario %q did not drain: some promised evaluations never landed", name)
	}
	if rep.Bottles != cfg.Bottles {
		t.Errorf("acknowledged %d bottles, want %d", rep.Bottles, cfg.Bottles)
	}
	if rep.ExpectedEvaluations == 0 {
		t.Errorf("prefilter promised no evaluations — the scenario exercised nothing")
	}
	if rep.AcceptedMatches == 0 {
		t.Errorf("no accepted matches — first-bottle ground-truth matches are guaranteed")
	}
	return rep
}

func TestScenarioBurst(t *testing.T) {
	rep := runScenario(t, threeRacks, "burst", smallScenario(11))
	if rep.Ticks.Evaluated < rep.ExpectedEvaluations {
		t.Errorf("evaluated %d < expected %d", rep.Ticks.Evaluated, rep.ExpectedEvaluations)
	}
}

func TestScenarioChurnWithRackKill(t *testing.T) {
	cfg := smallScenario(12)
	cfg.SeverRack = 2
	rep := runScenario(t, threeRacks, "churn", cfg)
	if rep.SeveredRack != "rack-1" {
		t.Errorf("severed %q, want rack-1", rep.SeveredRack)
	}
	if rep.SubmitRetries == 0 {
		t.Errorf("churn produced no submit retries — connectivity never dropped")
	}
}

// TestScenarioAdversarial serves the adversary models against the live
// ring, over pipes and over TCP alike.
func TestScenarioAdversarial(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			rep := runScenario(t, tr.harness, "adversarial", smallScenario(13))
			if rep.ForgedPosts == 0 {
				t.Fatalf("cheater posted no forged replies — the attack never ran")
			}
			if rep.RejectedForgeries != rep.ForgedPosts {
				t.Errorf("rejected %d forgeries, want all %d posted", rep.RejectedForgeries, rep.ForgedPosts)
			}
			if rep.DictionaryAttempts == 0 {
				t.Errorf("dictionary attacker never ran")
			}
			if rep.DictionaryRecoveries != 0 {
				t.Errorf("dictionary attacker verified %d recoveries against opaque requests", rep.DictionaryRecoveries)
			}
		})
	}
}

// TestScenarioLossyDuplicates is the TickStats.Duplicates regression: on the
// lossy preset sweepers bypass the ring's replica merge and fan out over
// every rack directly, so replica copies reach the Sweeper and only its own
// per-tick collapsing keeps evaluation exactly-once. It runs over pipes and
// over TCP, with submits batched: a lost call resends its whole batch.
func TestScenarioLossyDuplicates(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			cfg := smallScenario(14)
			cfg.Batch = 4
			rep := runScenario(t, tr.harness, "lossy", cfg)
			if rep.Ticks.Duplicates == 0 {
				t.Errorf("direct replica sweeps produced no duplicates for the Sweeper to collapse")
			}
			if rep.SubmitRetries == 0 {
				t.Errorf("lossy links produced no submit retries")
			}
			if rep.SubmitLatency.Samples == 0 || rep.SweepLatency.Samples == 0 {
				t.Errorf("submit/sweep latency samples %d/%d, want both recorded", rep.SubmitLatency.Samples, rep.SweepLatency.Samples)
			}
		})
	}
}

// TestDialHarnessDoesNotOwnRacks pins the dialed harness's one difference:
// it reaches its racks (the ring, direct backends, second rings) but refuses
// to sever them.
func TestDialHarnessDoesNotOwnRacks(t *testing.T) {
	h := tcpRacks(t)
	if n := len(h.RackBackends()); n != 3 {
		t.Fatalf("RackBackends = %d couriers, want 3", n)
	}
	ring, closeRing, err := h.DialRing(nil)
	if err != nil {
		t.Fatalf("DialRing: %v", err)
	}
	defer closeRing()
	if _, err := ring.Stats(context.Background()); err != nil {
		t.Fatalf("Stats through a second ring: %v", err)
	}
	if _, err := h.Sever(0); err == nil {
		t.Fatalf("Sever killed a rack the harness does not own")
	}
}

// TestScenarioImposter is the identity-attack acceptance run: a secured
// 3-rack R=2 ring with tight per-identity quotas, attacked by a fully-scoped
// foreign identity (cross-identity drains), bad tokens, and a quota-racing
// flood. The invariant checker asserts zero cross-identity fetches, typed
// ErrUnauthorized on every probe, quota-bounded flood damage, and that
// shedding never ejected a healthy rack.
func TestScenarioImposter(t *testing.T) {
	h, err := NewHarness(Topology{
		Racks:       3,
		Replication: 2,
		Secured:     true,
		QuotaRate:   50,
		QuotaBurst:  16,
	})
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	defer h.Close()
	cfg := smallScenario(17)
	cfg.Bottles = 24 // quota-throttled submits: keep the run quick under -race
	// Batched submits under the quota: a rack that sheds a batch fails only
	// its items, and the submitter resends those alone.
	cfg.Batch = 4
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rep, err := Run(ctx, h, mustPreset(t, "imposter"), cfg)
	if err != nil {
		t.Fatalf("Run(imposter): %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if !rep.Drained {
		t.Errorf("imposter scenario did not drain")
	}
	if rep.ImposterProbes == 0 || rep.ImposterDenied != rep.ImposterProbes {
		t.Errorf("imposter probes %d, denied %d; want all probes denied with ErrUnauthorized", rep.ImposterProbes, rep.ImposterDenied)
	}
	if rep.FloodShed == 0 {
		t.Errorf("flood of %d submits was never shed", rep.FloodSubmits)
	}
	if rep.FloodAccepted == 0 {
		t.Errorf("flood landed nothing — the quota race never ran (burst should admit some)")
	}
	if rep.ReplyLatency.Samples == 0 {
		t.Errorf("no reply latency samples recorded")
	}
}

// TestImposterRequiresSecuredTopology pins the guard: identity attacks are
// meaningless without token verification.
func TestImposterRequiresSecuredTopology(t *testing.T) {
	h := threeRacks(t)
	if _, err := Run(context.Background(), h, mustPreset(t, "imposter"), smallScenario(18)); err == nil {
		t.Fatalf("Run accepted the imposter preset on an unsecured harness")
	}
}

func TestScenarioZipf(t *testing.T) {
	rep := runScenario(t, threeRacks, "zipf", smallScenario(15))
	if rep.Ticks.Rejected == 0 {
		t.Errorf("heavy skew scenario never exercised the prefilter's reject path")
	}
}

// scriptedBackend hands the Sweeper exactly the bottles it is told to,
// emulating a replicated cluster returning the same bottle once per rack.
type scriptedBackend struct {
	bottles []sealedbottle.SweepResult
	calls   int
}

func (s *scriptedBackend) Submit(context.Context, []byte) (string, error) { return "", nil }
func (s *scriptedBackend) SubmitBatch(context.Context, [][]byte) ([]sealedbottle.SubmitResult, error) {
	return nil, nil
}
func (s *scriptedBackend) Sweep(context.Context, sealedbottle.SweepQuery) (sealedbottle.SweepResult, error) {
	if s.calls >= len(s.bottles) {
		return sealedbottle.SweepResult{}, nil
	}
	res := s.bottles[s.calls]
	s.calls++
	return res, nil
}
func (s *scriptedBackend) Reply(context.Context, string, []byte) error { return nil }
func (s *scriptedBackend) ReplyBatch(_ context.Context, posts []sealedbottle.ReplyPost) ([]error, error) {
	return make([]error, len(posts)), nil
}
func (s *scriptedBackend) Fetch(context.Context, string) ([][]byte, error) { return nil, nil }
func (s *scriptedBackend) FetchBatch(_ context.Context, ids []string) ([]sealedbottle.FetchResult, error) {
	return make([]sealedbottle.FetchResult, len(ids)), nil
}
func (s *scriptedBackend) Remove(context.Context, string) (bool, error) { return false, nil }
func (s *scriptedBackend) Stats(context.Context) (sealedbottle.Stats, error) {
	return sealedbottle.Stats{}, nil
}
func (s *scriptedBackend) Close() error { return nil }

// TestSweeperCollapsesScriptedReplicaCopies pins the exact duplicate count:
// the same bottle arriving under two rack tags in one sweep must be
// evaluated once and counted once as a duplicate.
func TestSweeperCollapsesScriptedReplicaCopies(t *testing.T) {
	a1 := attr.MustNew(attr.HeaderTag, "alpha")
	a2 := attr.MustNew(attr.HeaderTag, "beta")
	rng := rand.New(rand.NewSource(1))
	init, err := core.NewInitiator(core.FuzzyMatch(1, a1, a2), core.InitiatorConfig{
		Origin: "origin", Rand: rng,
	})
	if err != nil {
		t.Fatalf("NewInitiator: %v", err)
	}
	pkg := init.Request()
	raw, err := pkg.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	backend := &scriptedBackend{bottles: []sealedbottle.SweepResult{{
		Bottles: []sealedbottle.SweptBottle{
			{ID: "r0@" + pkg.ID, Raw: raw},
			{ID: "r1@" + pkg.ID, Raw: raw},
		},
		Scanned: 2,
	}}}
	part, err := core.NewParticipant(attr.NewProfile(a1, a2), core.ParticipantConfig{
		ID: "candidate", Rand: rng,
	})
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	sw, err := sealedbottle.NewSweeper(backend, sealedbottle.SweeperConfig{Participant: part})
	if err != nil {
		t.Fatalf("NewSweeper: %v", err)
	}
	st, err := sw.Tick(context.Background())
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if st.Swept != 2 || st.Duplicates != 1 || st.Evaluated != 1 {
		t.Fatalf("tick = swept %d, duplicates %d, evaluated %d; want 2, 1, 1", st.Swept, st.Duplicates, st.Evaluated)
	}
}

func TestPresetCatalog(t *testing.T) {
	names := PresetNames()
	want := []string{"adversarial", "burst", "churn", "imposter", "lossy", "zipf"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("PresetNames() = %v, want %v", names, want)
	}
	for _, name := range want {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatalf("PresetByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("preset %q carries name %q", name, p.Name)
		}
		if p.Description == "" {
			t.Errorf("preset %q has no description", name)
		}
		if p.BurstSize < 1 {
			t.Errorf("preset %q has burst size %d", name, p.BurstSize)
		}
		if p.ZipfExponent <= 1 || p.TagVocabulary < 2 {
			t.Errorf("preset %q has degenerate population shape", name)
		}
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Fatalf("PresetByName accepted an unknown scenario")
	}
}

func TestSeverRequiresReplication(t *testing.T) {
	h, err := NewHarness(Topology{Racks: 3, Replication: 1})
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	defer h.Close()
	cfg := smallScenario(16)
	cfg.SeverRack = 1
	if _, err := Run(context.Background(), h, mustPreset(t, "burst"), cfg); err == nil {
		t.Fatalf("Run accepted a rack kill on an unreplicated ring")
	}
}

// TestCheckerCountsInAnyOrder pins the checker's running counts against a
// recount over every (sweeper, bottle) pair: sweepers registered before or
// after the submits, an evaluation observed before its submit is tracked,
// a bottle tracked twice, and a bottle no registered prefilter admits.
func TestCheckerCountsInAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tags := func(names ...string) []attr.Attribute {
		out := make([]attr.Attribute, len(names))
		for i, n := range names {
			out[i] = attr.MustNew(attr.HeaderTag, n)
		}
		return out
	}
	pkg := func(names ...string) *core.RequestPackage {
		init, err := core.NewInitiator(core.FuzzyMatch(1, tags(names...)...), core.InitiatorConfig{Origin: "o", Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		return init.Request()
	}
	residues := func(names ...string) core.ResidueSet {
		m, err := core.NewMatcher(attr.NewProfile(tags(names...)...), core.MatcherConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return m.ResidueSet(core.DefaultPrime)
	}
	recount := func(c *Checker) (expected, pending int) {
		for _, s := range c.sweepers {
			for id, b := range c.bottles {
				if expects(s, b) {
					expected++
					if s.observed[id] == 0 {
						pending++
					}
				}
			}
		}
		return expected, pending
	}
	a, b, stray := pkg("alpha", "beta"), pkg("gamma", "delta"), pkg("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11", "x12")
	c := NewChecker()
	c.RegisterSweeper("s2", residues("gamma", "delta"))
	c.ObserveEvaluation("s2", "r1@"+b.ID, "")
	c.TrackSubmit("sub", "r0@"+a.ID, a)
	c.TrackSubmit("sub", b.ID, b)
	c.TrackSubmit("sub", "r0@"+b.ID, b)
	c.TrackSubmit("sub", stray.ID, stray)
	c.RegisterSweeper("s1", residues("alpha", "beta"))
	if !expects(c.sweepers["s2"], c.bottles[b.ID]) || !expects(c.sweepers["s1"], c.bottles[a.ID]) {
		t.Fatal("the sweepers' prefilters do not admit their own bottles: the case checks nothing")
	}
	expected, pending := recount(c)
	if c.ExpectedEvaluations() != expected || c.AllObserved() != (pending == 0) {
		t.Fatalf("running counts: expected %d, all observed %v; recount: expected %d, pending %d",
			c.ExpectedEvaluations(), c.AllObserved(), expected, pending)
	}
	for id := range c.bottles {
		for name, s := range c.sweepers {
			if expects(s, c.bottles[id]) && s.observed[id] == 0 {
				c.ObserveEvaluation(name, id, "")
			}
		}
	}
	if !c.AllObserved() {
		t.Fatal("every promised evaluation observed, yet AllObserved is false")
	}
}
