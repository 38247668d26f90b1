package sealedbottle

// Repository-level benchmarks: one benchmark per table and figure of the
// paper's evaluation, plus the ablations called out in DESIGN.md and the
// micro-operations of Tables IV-V as plain testing.B benchmarks. Run with
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks report the time to regenerate the whole
// artefact at a reduced (CI-friendly) scale; cmd/benchtables produces the
// full renderings.

import (
	"context"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"net"
	"sync/atomic"
	"testing"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/baseline/dotproduct"
	"sealedbottle/internal/baseline/fc10"
	"sealedbottle/internal/baseline/findu"
	"sealedbottle/internal/baseline/fnp"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/client"
	"sealedbottle/internal/core"
	"sealedbottle/internal/crypt"
	"sealedbottle/internal/experiments"
)

// benchConfig keeps the table/figure benchmarks at a CI-friendly scale.
func benchConfig() experiments.Config {
	return experiments.Config{
		CorpusUsers:       2000,
		Seed:              1,
		Initiators:        5,
		PoolUsers:         200,
		SampleUsers:       200,
		MeasureIterations: 200,
	}
}

// --- Tables -----------------------------------------------------------------

func BenchmarkTable1PrivacyLevelsHBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.TableI(); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2PrivacyLevelsMalicious(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.TableII(); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3AsymptoticComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.TableIII(); len(tbl.Rows) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkTable4SymmetricOps(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.TableIV(cfg); len(tbl.Rows) != 6 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkTable5AsymmetricOps(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.TableV(cfg); len(tbl.Rows) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkTable6DecomposedTimes(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.TableVI(cfg); len(tbl.Rows) != 5 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkTable7TypicalScenario(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.TableVII(cfg); len(tbl.Rows) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

// --- Figures ----------------------------------------------------------------

func BenchmarkFigure4ProfileUniqueness(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if s := experiments.Figure4(cfg); len(s.X) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure5AttributeDistribution(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if s := experiments.Figure5(cfg); len(s.X) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure6CandidateProportionSixAttrs(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if s := experiments.Figure6(cfg, experiments.CaseSixAttributes); len(s.X) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure6CandidateProportionDiverse(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if s := experiments.Figure6(cfg, experiments.CaseDiverse); len(s.X) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure7CandidateKeySetSixAttrs(b *testing.B) {
	cfg := benchConfig()
	cfg.PoolUsers = 80
	cfg.Initiators = 2
	for i := 0; i < b.N; i++ {
		if s := experiments.Figure7(cfg, experiments.CaseSixAttributes); len(s.X) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure7CandidateKeySetDiverse(b *testing.B) {
	cfg := benchConfig()
	cfg.PoolUsers = 80
	cfg.Initiators = 2
	for i := 0; i < b.N; i++ {
		if s := experiments.Figure7(cfg, experiments.CaseDiverse); len(s.X) == 0 {
			b.Fatal("empty series")
		}
	}
}

// --- Ablations --------------------------------------------------------------

func BenchmarkAblationRemainderPrime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.AblationRemainder(cfg); len(tbl.Rows) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkAblationVerifiability(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.AblationVerifiability(cfg); len(tbl.Rows) != 2 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkAblationLocationBinding(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.AblationLocationBinding(cfg); len(tbl.Rows) != 2 {
			b.Fatal("unexpected table shape")
		}
	}
}

// --- Core protocol micro-benchmarks (the paper's headline numbers) ----------

func benchSpec() core.RequestSpec {
	return core.RequestSpec{
		Necessary: []attr.Attribute{
			attr.MustNew("sex", "male"),
			attr.MustNew("university", "columbia"),
		},
		Optional: []attr.Attribute{
			attr.MustNew("interest", "basketball"),
			attr.MustNew("interest", "chess"),
			attr.MustNew("interest", "golf"),
			attr.MustNew("interest", "tennis"),
		},
		MinOptional: 2,
	}
}

// BenchmarkRequestGeneration is the paper's "generate a friending request"
// cost (≈1.3 ms on the 2011 handset, ≈0.04 ms on its laptop).
func BenchmarkRequestGeneration(b *testing.B) {
	spec := benchSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildRequest(spec, core.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNonCandidateProcessing is the per-request cost for a user excluded
// by the remainder-vector fast check (≈0.63 ms on the paper's handset).
func BenchmarkNonCandidateProcessing(b *testing.B) {
	built, err := core.BuildRequest(benchSpec(), core.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	matcher, err := core.NewMatcher(attr.NewProfile(
		attr.MustNew("interest", "gardening"),
		attr.MustNew("interest", "astronomy"),
		attr.MustNew("profession", "chef"),
		attr.MustNew("city", "lyon"),
		attr.MustNew("sex", "female"),
		attr.MustNew("interest", "opera"),
	), core.MatcherConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := matcher.CandidateKeys(built.Package); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCandidateProcessing is the per-request cost for a candidate user
// that must enumerate keys and attempt decryption (≈7 ms on the handset).
func BenchmarkCandidateProcessing(b *testing.B) {
	built, err := core.BuildRequest(benchSpec(), core.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	matcher, err := core.NewMatcher(attr.NewProfile(
		attr.MustNew("sex", "male"),
		attr.MustNew("university", "columbia"),
		attr.MustNew("interest", "basketball"),
		attr.MustNew("interest", "chess"),
		attr.MustNew("interest", "cooking"),
		attr.MustNew("interest", "hiking"),
	), core.MatcherConfig{AllowCollisionSkip: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := matcher.TryUnseal(built.Package); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileKeyGeneration isolates hashing a 6-attribute profile into
// its profile key.
func BenchmarkProfileKeyGeneration(b *testing.B) {
	profile := attr.NewProfile(benchSpec().Necessary...)
	for _, a := range benchSpec().Optional {
		profile.Add(a)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := crypt.VectorFromProfile(profile)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Key(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Baseline comparison benchmarks (Table VII, measured end to end) --------

func baselineSets() (client, server []string) {
	client = []string{"tag:a", "tag:b", "tag:c", "tag:d", "tag:e", "tag:f"}
	server = []string{"tag:d", "tag:e", "tag:f", "tag:g", "tag:h", "tag:i"}
	return client, server
}

func BenchmarkBaselineFNP(b *testing.B) {
	client, server := baselineSets()
	for i := 0; i < b.N; i++ {
		if _, err := fnp.Run(rand.Reader, 512, client, server); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineFC10(b *testing.B) {
	client, server := baselineSets()
	for i := 0; i < b.N; i++ {
		if _, err := fc10.Run(rand.Reader, 1024, client, server); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineFindUPSI(b *testing.B) {
	client, server := baselineSets()
	group, err := findu.NewGroup(rand.Reader, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := findu.PSI(rand.Reader, group, client, server); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineDotProduct(b *testing.B) {
	alice := []int64{3, 1, 4, 1, 5, 9}
	bob := []int64{2, 7, 1, 8, 2, 8}
	for i := 0; i < b.N; i++ {
		if _, err := dotproduct.Run(rand.Reader, 512, alice, bob); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Bottle-rack broker benchmarks ---------------------------------------
//
// These track the rendezvous subsystem's perf trajectory: submit throughput
// vs shard count (contention), and sweep cost vs shard count and rack size.

// benchRawBottles pre-marshals n wire-distinct request packages by cloning
// one built request and re-stamping its ID, so benchmark loops measure broker
// cost rather than request-generation crypto.
func benchRawBottles(b *testing.B, n int) [][]byte {
	b.Helper()
	built, err := core.BuildRequest(benchSpec(), core.BuildOptions{Origin: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		pkg := built.Package.Clone()
		pkg.ID = fmt.Sprintf("%032x", i)
		if out[i], err = pkg.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// benchSweeperResidues builds the residue set of a profile that passes the
// benchSpec prefilter, so sweeps pay the full screen-and-return path.
func benchSweeperResidues(b *testing.B) []core.ResidueSet {
	b.Helper()
	matcher, err := core.NewMatcher(attr.NewProfile(
		attr.MustNew("sex", "male"),
		attr.MustNew("university", "columbia"),
		attr.MustNew("interest", "basketball"),
		attr.MustNew("interest", "chess"),
	), core.MatcherConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return []core.ResidueSet{matcher.ResidueSet(core.DefaultPrime)}
}

// BenchmarkBrokerSubmit measures racked submissions per second as the shard
// count grows (parallel submitters contend on shard mutexes).
func BenchmarkBrokerSubmit(b *testing.B) {
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rack := broker.New(broker.Config{Shards: shards, ReapInterval: -1})
			defer rack.Close()
			raws := benchRawBottles(b, b.N)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1) - 1
					if _, err := rack.Submit(context.Background(), raws[i]); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkBrokerSweepShards measures sweep latency over a fixed-size rack as
// the shard count grows — the caller and idle workers claim shards of one
// query between them.
func BenchmarkBrokerSweepShards(b *testing.B) {
	const rackSize = 4096
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rack := broker.New(broker.Config{Shards: shards, ReapInterval: -1})
			defer rack.Close()
			for _, raw := range benchRawBottles(b, rackSize) {
				if _, err := rack.Submit(context.Background(), raw); err != nil {
					b.Fatal(err)
				}
			}
			residues := benchSweeperResidues(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rack.Sweep(context.Background(), broker.SweepQuery{Residues: residues, Limit: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRackSweep measures the steady-state sweep shape: a large rack
// where far more bottles pass the prefilter than the query limit admits.
// Every bottle here passes, so the sweep's cost is pure collection — the
// case the shared whole-rack collection budget exists for. Before it, each
// of the 64 shards collected up to the full limit and the merge threw all
// but `limit` away (shards×limit collected bottles per sweep); now shards
// stop scanning as soon as the shared budget is spent, so small-limit sweeps
// over big racks no longer pay for the rack's size. Compare limit=16 against
// limit=unbounded (which must still scan everything) to see the win.
func BenchmarkRackSweep(b *testing.B) {
	const rackSize = 32768
	rack := broker.New(broker.Config{Shards: 64, ReapInterval: -1})
	defer rack.Close()
	for _, raw := range benchRawBottles(b, rackSize) {
		if _, err := rack.Submit(context.Background(), raw); err != nil {
			b.Fatal(err)
		}
	}
	residues := benchSweeperResidues(b)
	for _, limit := range []int{16, 256, rackSize} {
		name := fmt.Sprintf("limit=%d", limit)
		if limit == rackSize {
			name = "limit=all"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := rack.Sweep(context.Background(), broker.SweepQuery{Residues: residues, Limit: limit})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Bottles) != limit {
					b.Fatalf("swept %d bottles, want %d", len(res.Bottles), limit)
				}
			}
		})
	}
}

// BenchmarkRackSweepScreening measures the scan in the shape of the
// benchmark's friend-1rack workload: 16 shards racking 5000 real packages of
// 8–10 necessary and 3 optional tags, swept by a candidate with 7 distinct
// residues mod 11 through a held window of 4096 IDs that already holds every
// racked bottle the candidate passes. Each sweep screens every bottle and
// returns none, so ns/bottle is the per-bottle cost of the screen.
func BenchmarkRackSweepScreening(b *testing.B) {
	const (
		shards   = 16
		racked   = 5000
		seenCap  = 4096
		residues = 7
	)
	rng := mrand.New(mrand.NewSource(1))
	rack := broker.New(broker.Config{Shards: shards, ReapInterval: -1})
	defer rack.Close()
	var candidate core.ResidueSet
	for candidate.Count() != residues {
		profile := attr.NewProfile()
		for profile.Len() < residues {
			profile.Add(attr.MustNew("cand", fmt.Sprintf("a%d", rng.Intn(1<<20))))
		}
		m, err := core.NewMatcher(profile, core.MatcherConfig{})
		if err != nil {
			b.Fatal(err)
		}
		candidate = m.ResidueSet(core.DefaultPrime)
	}
	var seen []string
	for i := 0; i < racked; i++ {
		// Distinct tags out of a vocabulary of 5000, as the workload draws them.
		necessary := 8 + i%3
		spec := core.RequestSpec{MinOptional: 3 - (i/3)%2}
		drawn := make(map[int]bool)
		for len(drawn) < necessary+3 {
			tag := rng.Intn(5000)
			if drawn[tag] {
				continue
			}
			drawn[tag] = true
			a := attr.MustNew(attr.HeaderTag, fmt.Sprintf("t%d", tag))
			if len(spec.Necessary) < necessary {
				spec.Necessary = append(spec.Necessary, a)
			} else {
				spec.Optional = append(spec.Optional, a)
			}
		}
		built, err := core.BuildRequest(spec, core.BuildOptions{Origin: "standing"})
		if err != nil {
			b.Fatal(err)
		}
		raw, err := built.Package.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rack.Submit(context.Background(), raw); err != nil {
			b.Fatal(err)
		}
		if built.Package.PrefilterMatch(candidate) {
			seen = append(seen, built.Package.ID)
		}
	}
	for i := len(seen); i < seenCap; i++ {
		seen = append(seen, fmt.Sprintf("%032x", i))
	}
	q := broker.SweepQuery{
		Residues: []core.ResidueSet{candidate},
		Window:   1, SeenCap: seenCap, SeenFull: true, Seen: seen,
	}
	if res, err := rack.Sweep(context.Background(), q); err != nil || res.Resync || len(res.Bottles) != 0 || res.Scanned != racked {
		b.Fatalf("warm-up sweep: %d bottles of %d scanned, resync %v, %v", len(res.Bottles), res.Scanned, res.Resync, err)
	}
	// From here on every sweep is an empty delta against the held window.
	q.SeenFull, q.SeenBase, q.Seen = false, seenCap, nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rack.Sweep(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*racked), "ns/bottle")
}

// BenchmarkBrokerSweepRackSize measures how sweep cost scales with the number
// of racked bottles at a fixed shard count.
func BenchmarkBrokerSweepRackSize(b *testing.B) {
	for _, rackSize := range []int{1024, 8192, 32768} {
		b.Run(fmt.Sprintf("bottles=%d", rackSize), func(b *testing.B) {
			rack := broker.New(broker.Config{Shards: 32, ReapInterval: -1})
			defer rack.Close()
			for _, raw := range benchRawBottles(b, rackSize) {
				if _, err := rack.Submit(context.Background(), raw); err != nil {
					b.Fatal(err)
				}
			}
			residues := benchSweeperResidues(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rack.Sweep(context.Background(), broker.SweepQuery{Residues: residues, Limit: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBrokerSubmitDurable measures racked submissions with the
// write-ahead log on, one sub-benchmark per fsync policy; hold against
// BenchmarkBrokerSubmit (the in-memory path) on the same shard count. The
// acceptance bar for the durability subsystem is fsync=interval within 2× of
// in-memory: the hot path adds one record encode and one channel send, while
// syncing rides the background timer. fsync=always pays a (group-committed)
// fsync per acknowledged operation and is expected to be disk-bound.
func BenchmarkBrokerSubmitDurable(b *testing.B) {
	for _, policy := range []wal.Policy{wal.PolicyNever, wal.PolicyInterval, wal.PolicyAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			rack, err := broker.Open(broker.Config{
				Shards:       64,
				ReapInterval: -1,
				Durability:   &broker.DurabilityConfig{Dir: b.TempDir(), Fsync: policy},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rack.Close()
			raws := benchRawBottles(b, b.N)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1) - 1
					if _, err := rack.Submit(context.Background(), raws[i]); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkBrokerSubmitBatchDurable measures the batched durable submit
// path: one group commit per 64-bottle batch, so even fsync=always amortizes
// its sync across the whole group.
func BenchmarkBrokerSubmitBatchDurable(b *testing.B) {
	const batch = 64
	for _, policy := range []wal.Policy{wal.PolicyInterval, wal.PolicyAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			rack, err := broker.Open(broker.Config{
				Shards:       64,
				ReapInterval: -1,
				Durability:   &broker.DurabilityConfig{Dir: b.TempDir(), Fsync: policy},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rack.Close()
			raws := benchRawBottles(b, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := batch
				if b.N-done < n {
					n = b.N - done
				}
				results, err := rack.SubmitBatch(context.Background(), raws[done:done+n])
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
				done += n
			}
		})
	}
}

// BenchmarkBrokerPrefilter isolates the residue-presence screen a sweep runs
// per racked bottle.
func BenchmarkBrokerPrefilter(b *testing.B) {
	built, err := core.BuildRequest(benchSpec(), core.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rs := benchSweeperResidues(b)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built.Package.PrefilterMatch(rs)
	}
}

// BenchmarkCodecRoundTrips measures the steady-state codec paths of the
// allocation-free hot path: the Append* encoders reuse caller scratch and the
// *View decoders alias the frame, so a warmed round trip allocates nothing.
// The budgets are pinned by TestCodecRoundTripAllocFree; this records them in
// the perf trajectory.
func BenchmarkCodecRoundTrips(b *testing.B) {
	raws := benchRawBottles(b, 3)
	res := broker.SweepResult{
		Bottles: []broker.SweptBottle{
			{ID: "bench-codec-1", Raw: raws[0]},
			{ID: "bench-codec-2", Raw: raws[1]},
			{ID: "bench-codec-3", Raw: raws[2]},
		},
		Scanned: 64,
	}
	b.Run("sweep-result", func(b *testing.B) {
		var buf []byte
		var view broker.SweepResultView
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = broker.AppendSweepResult(buf[:0], res)
			if err := broker.UnmarshalSweepResultView(buf, &view); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reply-post", func(b *testing.B) {
		var buf []byte
		var view broker.ReplyPostView
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = broker.AppendReplyPost(buf[:0], "bench-codec-1", raws[0])
			if err := broker.UnmarshalReplyPostView(buf, &view); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Transport benchmarks -------------------------------------------------
//
// These compare the two wire framings on ONE connection: the lock-step client
// serializes a full round trip per operation, while the multiplexed client
// keeps many requests in flight and the batch opcodes amortize the round trip
// across whole groups. They run over TCP loopback so the numbers include real
// socket behaviour.

// benchTransportRack serves a fresh rack over TCP loopback.
func benchTransportRack(b *testing.B) (addr string, cleanup func()) {
	b.Helper()
	rack := broker.New(broker.Config{Shards: 32, ReapInterval: -1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rack.Close()
		b.Skipf("cannot listen on loopback: %v", err)
	}
	srv := transport.NewServer(rack)
	go srv.Serve(l)
	return l.Addr().String(), func() {
		l.Close()
		srv.Close()
		rack.Close()
	}
}

// benchSubmitThroughput drives b.N pre-marshalled submissions through one
// courier from many goroutines; with Conns=1 every request rides the same
// connection, so the framing alone decides how many can be in flight.
func benchSubmitThroughput(b *testing.B, legacy bool) {
	addr, cleanup := benchTransportRack(b)
	defer cleanup()
	courier, err := client.Dial(client.Config{Addr: addr, Conns: 1, Legacy: legacy})
	if err != nil {
		b.Fatal(err)
	}
	defer courier.Close()
	raws := benchRawBottles(b, b.N)
	var next atomic.Int64
	b.SetParallelism(32) // deep in-flight pipeline on the single connection
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1) - 1
			if _, err := courier.Submit(context.Background(), raws[i]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkTransportSubmitLockstep is the old framing: one round trip at a
// time per connection.
func BenchmarkTransportSubmitLockstep(b *testing.B) { benchSubmitThroughput(b, true) }

// BenchmarkTransportSubmitPipelined is the multiplexed framing on the same
// single connection; the acceptance bar for the refactor is ≥2× the lock-step
// submit throughput.
func BenchmarkTransportSubmitPipelined(b *testing.B) { benchSubmitThroughput(b, false) }

// BenchmarkTransportRoundTrip is one caller doing sequential Submit and
// Remove calls on one multiplexed connection over loopback TCP — the
// submit-storm workload's shape. Nothing overlaps, so it times the call
// itself: framing, goroutine wake-ups and server dispatch on both ends.
func BenchmarkTransportRoundTrip(b *testing.B) {
	addr, cleanup := benchTransportRack(b)
	defer cleanup()
	courier, err := client.Dial(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer courier.Close()
	raws := benchRawBottles(b, b.N)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for _, raw := range raws {
		id, err := courier.Submit(ctx, raw)
		if err != nil {
			b.Fatal(err)
		}
		if held, err := courier.Remove(ctx, id); err != nil || !held {
			b.Fatalf("remove %s: held %v, %v", id, held, err)
		}
	}
}

// BenchmarkTransportSubmitBatched adds the SubmitBatch opcode on top of the
// multiplexed framing: one round trip and one shard-lock acquisition per
// group of 64.
func BenchmarkTransportSubmitBatched(b *testing.B) {
	const batch = 64
	addr, cleanup := benchTransportRack(b)
	defer cleanup()
	courier, err := client.Dial(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer courier.Close()
	raws := benchRawBottles(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batch
		if b.N-done < n {
			n = b.N - done
		}
		results, err := courier.SubmitBatch(context.Background(), raws[done:done+n])
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
		done += n
	}
}

// BenchmarkSealedBottleEndToEnd runs a full Protocol 1 exchange (request,
// candidate processing, reply, reply verification) — the number to hold
// against the baseline benchmarks above.
func BenchmarkSealedBottleEndToEnd(b *testing.B) {
	spec := benchSpec()
	profile := attr.NewProfile(
		attr.MustNew("sex", "male"),
		attr.MustNew("university", "columbia"),
		attr.MustNew("interest", "basketball"),
		attr.MustNew("interest", "chess"),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		init, err := core.NewInitiator(spec, core.InitiatorConfig{Protocol: core.Protocol1, Origin: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		participant, err := core.NewParticipant(profile, core.ParticipantConfig{
			ID:      "peer",
			Matcher: core.MatcherConfig{AllowCollisionSkip: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := participant.HandleRequest(init.Request())
		if err != nil {
			b.Fatal(err)
		}
		if res.Reply == nil {
			b.Fatal("expected a reply")
		}
		if m, reject, err := init.ProcessReply(res.Reply); err != nil || reject != core.RejectNone || m == nil {
			b.Fatalf("reply rejected: %v %v", reject, err)
		}
	}
}

// BenchmarkRingSubmitReplicated measures what R-way replication costs a
// submit over in-process racks: R=1 is the intent set of one, R=2 pays one
// extra rack write plus the fan-out bookkeeping.
func BenchmarkRingSubmitReplicated(b *testing.B) {
	for _, rf := range []int{1, 2} {
		b.Run(fmt.Sprintf("R=%d", rf), func(b *testing.B) {
			cfg := client.RingConfig{ProbeInterval: -1, Replication: rf}
			var racks []*broker.Rack
			for i := 0; i < 3; i++ {
				rack := broker.New(broker.Config{Shards: 8, ReapInterval: -1, RackTag: fmt.Sprintf("r%d", i)})
				racks = append(racks, rack)
				cfg.Backends = append(cfg.Backends, client.RingBackend{Name: fmt.Sprintf("rack-%d", i), Backend: rack})
			}
			defer func() {
				for _, r := range racks {
					r.Close()
				}
			}()
			ring, err := client.NewRing(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer ring.Close()
			raws := benchRawBottles(b, b.N)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1) - 1
					if _, err := ring.Submit(context.Background(), raws[i]); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
