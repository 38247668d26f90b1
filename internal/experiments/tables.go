package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
	"sealedbottle/internal/costmodel"
	"sealedbottle/internal/crypt"
)

// TableI reproduces Table I: the privacy protection levels of the three
// protocols and the PSI/PCSI baselines in the honest-but-curious model.
// Columns follow the paper: (A_I, v_M), (A_I, v_U), (A_M, v_I), (A_U, v_I).
func TableI() Table {
	return Table{
		Title:  "Table I — privacy protection levels in the HBC model",
		Header: []string{"Scheme", "(A_I, v_M)", "(A_I, v_U)", "(A_M, v_I)", "(A_U, v_I)"},
		Rows: [][]string{
			{"Protocol 1", "PPL1", "PPL3", "PPL2", "PPL3"},
			{"Protocol 2", "PPL3", "PPL3", "PPL2", "PPL3"},
			{"Protocol 3", "PPL3", "PPL3", "PPL2", "PPL3"},
			{"PSI", "PPL3", "PPL3", "PPL1", "PPL1"},
			{"PCSI", "PPL3", "PPL3", "|A_I∩A_M|", "|A_I∩A_U|"},
		},
		Notes: []string{
			"empirically checked by internal/adversary: matching Protocol 1 users learn only the intersection; unmatched users and eavesdroppers learn nothing",
		},
	}
}

// TableII reproduces Table II: protection levels in the malicious model when
// the adversary holds a small attribute dictionary. v'_I is a malicious
// initiator with a dictionary, v'_P a malicious participant with a dictionary
// eavesdropping all communication.
func TableII() Table {
	return Table{
		Title:  "Table II — privacy protection levels in the malicious model with a small dictionary",
		Header: []string{"Scheme", "(A_I, v'_P)", "(A_M, v'_I)", "(A_M, v'_P)", "(A_U, v'_I)", "(A_U, v'_P)"},
		Rows: [][]string{
			{"Protocol 1", "PPL0", "PPL2", "PPL2", "PPL3", "PPL3"},
			{"Protocol 2", "PPL3", "PPL2", "PPL3", "PPL3 (noncand) / A_c (cand)", "PPL3"},
			{"Protocol 3", "PPL3", "ϕ-entropy", "PPL3", "PPL3 (noncand) / ϕ-entropy (cand)", "PPL3"},
		},
		Notes: []string{
			"the dictionary-profiling attack of internal/adversary recovers a Protocol 1 request with a small dictionary but verifies nothing against Protocols 2/3",
		},
	}
}

// TableIII reproduces Table III: asymptotic computation and communication
// comparison, instantiated for the typical scenario so the counts are
// concrete numbers (the symbolic forms are documented on costmodel's
// formulas).
func TableIII() Table {
	s := costmodel.TypicalScenario()
	rows := make([][]string, 0, 4)
	for _, c := range costmodel.AllSchemes(s) {
		rows = append(rows, []string{
			c.Name,
			opsString(c.InitiatorOps),
			opsString(c.ParticipantOps),
			opsString(c.CandidateOps),
			fmt.Sprintf("%.0f", c.CommunicationBits),
			c.Transmissions,
		})
	}
	return Table{
		Title:  "Table III — computation and communication comparison (typical scenario counts)",
		Header: []string{"Scheme", "Initiator ops", "Participant ops", "Candidate ops", "Comm (bits)", "Transmissions"},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("scenario: mt=%d mk=%d n=%d t=%d γ=%d β=%d p=%d q=%d", s.Mt, s.Mk, s.N, s.T, s.Gamma, s.Beta, s.P, s.Q),
		},
	}
}

func opsString(ops map[string]float64) string {
	if len(ops) == 0 {
		return "-"
	}
	names := make([]string, 0, len(ops))
	for op := range ops {
		names = append(names, op)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, op := range names {
		parts = append(parts, fmt.Sprintf("%.2f·%s", ops[op], op))
	}
	return strings.Join(parts, " + ")
}

// TableIV reproduces Table IV: mean computation time of the basic symmetric
// operations. The "host" column is measured on this machine; the "phone est."
// column applies the calibrated device slowdown; the paper's published
// laptop/phone values are included for reference.
func TableIV(cfg Config) Table {
	cfg = cfg.withDefaults()
	host := costmodel.MeasureSymmetric(cfg.MeasureIterations)
	phoneEst := host.Scale(costmodel.PhoneSlowdown)
	paperLaptop := costmodel.PaperLaptopTimes()
	paperPhone := costmodel.PaperPhoneTimes()
	ops := []struct {
		label string
		op    string
	}{
		{"SHA-256", costmodel.OpHash},
		// Digest.Mod: four 128-by-64-bit remainder steps (math/bits.Rem64)
		// over the digest's big-endian words, not one step per byte.
		{"Mod p", costmodel.OpMod},
		{"AES Enc", costmodel.OpAESEnc},
		{"AES Dec", costmodel.OpAESDec},
		{"Multiply-256", costmodel.OpMul256},
		{"Compare-256", costmodel.OpCmp256},
	}
	rows := make([][]string, 0, len(ops))
	for _, o := range ops {
		rows = append(rows, []string{
			o.label,
			formatDuration(host[o.op]),
			formatDuration(phoneEst[o.op]),
			formatDuration(paperLaptop[o.op]),
			formatDuration(paperPhone[o.op]),
		})
	}
	return Table{
		Title:  "Table IV — mean computation time of basic symmetric operations",
		Header: []string{"Operation", "Host (measured)", "Phone (estimated)", "Paper laptop", "Paper phone"},
		Rows:   rows,
		Notes:  []string{"phone estimate = host × calibrated slowdown (DESIGN.md substitution 2)"},
	}
}

// TableV reproduces Table V: mean computation time of the asymmetric
// operations used by the baselines.
func TableV(cfg Config) Table {
	cfg = cfg.withDefaults()
	iters := cfg.MeasureIterations / 20
	if iters < 3 {
		iters = 3
	}
	host := costmodel.MeasureAsymmetric(iters)
	phoneEst := host.Scale(costmodel.PhoneSlowdown)
	paperLaptop := costmodel.PaperLaptopTimes()
	paperPhone := costmodel.PaperPhoneTimes()
	ops := []struct {
		label string
		op    string
	}{
		{"1024-bit exponentiation", costmodel.OpExp1024},
		{"2048-bit exponentiation", costmodel.OpExp2048},
		{"1024-bit multiplication", costmodel.OpMul1024},
		{"2048-bit multiplication", costmodel.OpMul2048},
	}
	rows := make([][]string, 0, len(ops))
	for _, o := range ops {
		rows = append(rows, []string{
			o.label,
			formatDuration(host[o.op]),
			formatDuration(phoneEst[o.op]),
			formatDuration(paperLaptop[o.op]),
			formatDuration(paperPhone[o.op]),
		})
	}
	return Table{
		Title:  "Table V — mean computation time of asymmetric operations",
		Header: []string{"Operation", "Host (measured)", "Phone (estimated)", "Paper laptop", "Paper phone"},
		Rows:   rows,
	}
}

// ProtocolPhase names one of the decomposed steps of Table VI.
type ProtocolPhase string

// The decomposed steps the paper times.
const (
	PhaseMatrixGen    ProtocolPhase = "MatrixGen"    // hashing the sorted profile into the profile vector
	PhaseKeyGen       ProtocolPhase = "KeyGen"       // deriving the profile key from the vector
	PhaseRemainderGen ProtocolPhase = "RemainderGen" // computing the remainder vector
	PhaseHintGen      ProtocolPhase = "HintGen"      // building the hint matrix (initiator)
	PhaseHintSolve    ProtocolPhase = "HintSolve"    // solving the hint system (candidate)
)

// TableVI reproduces Table VI: the decomposed computation time of the
// protocol steps over the Weibo-like corpus. Each user in a deterministic
// sample acts once as an initiator (60%-similarity fuzzy request over their
// own tags) and once as a candidate missing γ attributes.
func TableVI(cfg Config) Table {
	cfg = cfg.withDefaults()
	corpus := cfg.corpus()
	sample := corpus.Sample(minInt(cfg.Initiators*10, 200), cfg.Seed+1)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	stats := map[ProtocolPhase]*durationStats{
		PhaseMatrixGen:    newDurationStats(),
		PhaseKeyGen:       newDurationStats(),
		PhaseRemainderGen: newDurationStats(),
		PhaseHintGen:      newDurationStats(),
		PhaseHintSolve:    newDurationStats(),
	}

	for _, user := range sample {
		profile := user.TagProfile()
		if profile.Len() < 2 {
			continue
		}
		start := time.Now()
		vector, err := crypt.VectorFromProfile(profile)
		if err != nil {
			continue
		}
		stats[PhaseMatrixGen].add(time.Since(start))

		start = time.Now()
		if _, err := vector.Key(); err != nil {
			continue
		}
		stats[PhaseKeyGen].add(time.Since(start))

		start = time.Now()
		_ = vector.Remainders(core.DefaultPrime)
		stats[PhaseRemainderGen].add(time.Since(start))

		// 60% similarity: γ ≈ 40% of the attributes (at least 1).
		gamma := profile.Len() * 2 / 5
		if gamma < 1 {
			gamma = 1
		}
		optional := make([]bool, profile.Len())
		for i := range optional {
			optional[i] = true
		}
		start = time.Now()
		if _, err := core.NewHintMatrix(rng, vector, optional, gamma); err != nil {
			continue
		}
		stats[PhaseHintGen].add(time.Since(start))

		// Candidate side: a user owning all but γ of the request attributes
		// recovers the rest by solving the hint system.
		attrs := profile.Attributes()
		spec := core.FuzzyMatch(profile.Len()-gamma, attrs...)
		built, err := core.BuildRequest(spec, core.BuildOptions{Rand: rng})
		if err != nil {
			continue
		}
		partial := attr.NewProfile(attrs[:profile.Len()-gamma]...)
		matcher, err := core.NewMatcher(partial, core.MatcherConfig{})
		if err != nil {
			continue
		}
		start = time.Now()
		if _, _, err := matcher.CandidateVectors(built.Package); err != nil {
			continue
		}
		stats[PhaseHintSolve].add(time.Since(start))
	}

	rows := make([][]string, 0, len(stats))
	for _, phase := range []ProtocolPhase{PhaseMatrixGen, PhaseKeyGen, PhaseRemainderGen, PhaseHintGen, PhaseHintSolve} {
		s := stats[phase]
		rows = append(rows, []string{
			string(phase),
			formatDuration(s.mean()),
			formatDuration(s.min),
			formatDuration(s.max),
		})
	}
	return Table{
		Title:  "Table VI — decomposed computation time over the Weibo-like corpus (host)",
		Header: []string{"Step", "Mean", "Min", "Max"},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("corpus: %d synthetic users, %d sampled initiators/candidates", cfg.CorpusUsers, len(sample)),
			"HintSolve includes candidate-vector enumeration, mirroring the paper's per-candidate cost",
		},
	}
}

// TableVII reproduces Table VII: the typical-scenario comparison with the
// asymmetric baselines, evaluated under the paper's published op timings and
// under timings measured on this host.
func TableVII(cfg Config) Table {
	cfg = cfg.withDefaults()
	s := costmodel.TypicalScenario()
	paper := costmodel.EvaluateAll(s, costmodel.PaperLaptopTimes())
	measuredTimes := costmodel.MeasureSymmetric(cfg.MeasureIterations)
	for op, d := range costmodel.MeasureAsymmetric(maxInt(cfg.MeasureIterations/100, 3)) {
		measuredTimes[op] = d
	}
	measured := costmodel.EvaluateAll(s, measuredTimes)

	rows := make([][]string, 0, len(paper))
	for i := range paper {
		rows = append(rows, []string{
			paper[i].Name,
			formatDuration(paper[i].InitiatorTime),
			formatDuration(paper[i].ParticipantTime),
			formatDuration(paper[i].CandidateTime),
			formatDuration(measured[i].InitiatorTime),
			formatDuration(measured[i].ParticipantTime),
			fmt.Sprintf("%.2f", paper[i].CommunicationKB),
			paper[i].Transmissions,
		})
	}
	return Table{
		Title: "Table VII — typical scenario comparison (mt=mk=6, γ=β=3, p=11, n=100)",
		Header: []string{
			"Scheme", "Init (paper ops)", "Part (paper ops)", "Candidate (paper ops)",
			"Init (host ops)", "Part (host ops)", "Comm KB", "Transmissions",
		},
		Rows: rows,
	}
}

// durationStats accumulates mean/min/max.
type durationStats struct {
	total time.Duration
	count int
	min   time.Duration
	max   time.Duration
}

func newDurationStats() *durationStats {
	return &durationStats{min: time.Duration(1<<63 - 1)}
}

func (s *durationStats) add(d time.Duration) {
	s.total += d
	s.count++
	if d < s.min {
		s.min = d
	}
	if d > s.max {
		s.max = d
	}
}

func (s *durationStats) mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return s.total / time.Duration(s.count)
}

func formatDuration(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
