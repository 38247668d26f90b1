// Package cluster drives the paper's reproduction experiments against the
// real multi-rack system instead of the single-process simulator: it spins up
// an N-rack replicated ring, generates a synthetic Zipf-skewed population
// with internal/dataset, replays churny-mobile-client scenarios (bursty
// arrivals, connect/disconnect windows derived from msn mobility, lossy
// links, adversarial traffic built from internal/adversary's attack models)
// through the public sealedbottle SDK, and checks end-to-end invariants the
// whole way: every acknowledged submit is swept exactly once per matcher,
// no reply ever leaks across clients, acknowledged replies are never lost,
// replica-merged sweeps collapse duplicates, and the adversary models stay
// defeated on the live wire protocol.
//
// Run is the one scenario runner. It takes a Harness on either transport:
// NewHarness starts racks in-process over pipes, DialHarness fronts racks
// serving on TCP. cmd/loadgen is flags over Run, so the CI smokes replay the
// same scenarios, checker included, against real bottlerack processes. See
// docs/EXPERIMENTS.md.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Preset is one named scenario shape: how arrivals are paced, how client
// connectivity behaves, and which adversary models are served. Run takes
// one; the zero Preset is a steady open loop.
type Preset struct {
	// Name is the -scenario flag value.
	Name string
	// Description is a one-line summary for usage text and reports.
	Description string

	// BurstSize and BurstGap shape arrivals: each submitter sends BurstSize
	// bottles back-to-back, then idles for BurstGap. BurstSize 1 with no gap
	// is a steady open loop.
	BurstSize int
	BurstGap  time.Duration

	// Churn drives client connectivity from msn random-waypoint mobility
	// (msn.ChurnTimeline): while a client is out of gateway coverage its
	// calls fail locally and it retries when coverage returns.
	Churn bool

	// LossRate drops this fraction of client calls before dispatch — a lossy
	// access link. Dropping strictly before dispatch keeps the accounting
	// honest: an acknowledged call is always one the cluster really served.
	LossRate float64

	// DirectReplicaSweep degrades sweepers from the ring's replica-merged
	// sweep to fanning out over every rack directly, so each bottle arrives
	// once per replica and the Sweeper's own duplicate collapsing
	// (TickStats.Duplicates) is what keeps evaluation exactly-once.
	DirectReplicaSweep bool

	// Adversarial arms the scenario with the paper's adversary models served
	// against the live ring: submits switch to opaque (Protocol 2) sealing, a
	// dictionary attacker sweeps with a popular-tag dictionary and tries to
	// recover request profiles, and a cheater posts forged replies that the
	// initiators must reject.
	Adversarial bool

	// Imposter arms the identity attacks and requires a Secured topology: a
	// fully-scoped foreign identity tries to drain and remove other clients'
	// bottles, under-scoped and wrong-key tokens probe every denial path, and
	// a flood from one identity races the per-identity admission quota. The
	// checker then asserts zero cross-identity fetches, typed ErrUnauthorized
	// on every probe, quota-bounded flood damage, and that shedding never
	// ejected a healthy rack.
	Imposter bool

	// ZipfExponent and TagVocabulary shape the synthetic population's
	// attribute skew (higher exponent + smaller vocabulary = heavier skew,
	// more prefilter hits per sweep).
	ZipfExponent  float64
	TagVocabulary int
}

// Presets returns the scenario catalog, in documentation order.
func Presets() []Preset {
	return []Preset{
		{
			Name:          "burst",
			Description:   "bursty arrivals: submitters fire back-to-back batches separated by idle gaps",
			BurstSize:     16,
			BurstGap:      2 * time.Millisecond,
			ZipfExponent:  1.05,
			TagVocabulary: 600,
		},
		{
			Name:          "churn",
			Description:   "mobile connect/disconnect: client connectivity follows msn random-waypoint coverage windows",
			BurstSize:     4,
			BurstGap:      time.Millisecond,
			Churn:         true,
			ZipfExponent:  1.05,
			TagVocabulary: 600,
		},
		{
			Name:          "adversarial",
			Description:   "opaque submits under attack: dictionary profiling, forged replies, and flood decoys served live",
			BurstSize:     8,
			BurstGap:      time.Millisecond,
			Adversarial:   true,
			ZipfExponent:  1.1,
			TagVocabulary: 300,
		},
		{
			Name:          "imposter",
			Description:   "identity attacks on a secured ring: cross-identity drains, bad tokens, and a quota-racing flood",
			BurstSize:     4,
			BurstGap:      time.Millisecond,
			Imposter:      true,
			ZipfExponent:  1.05,
			TagVocabulary: 600,
		},
		{
			Name:          "zipf",
			Description:   "heavy attribute skew: small vocabulary and steep popularity curve crowd the prefilter",
			BurstSize:     4,
			BurstGap:      0,
			ZipfExponent:  1.4,
			TagVocabulary: 96,
		},
		{
			Name:               "lossy",
			Description:        "lossy links + degraded direct-replica sweeps: retries and duplicate collapsing do the work",
			BurstSize:          4,
			BurstGap:           0,
			LossRate:           0.15,
			DirectReplicaSweep: true,
			ZipfExponent:       1.05,
			TagVocabulary:      600,
		},
	}
}

// PresetNames returns the catalog's names, sorted, for flag usage text.
func PresetNames() []string {
	ps := Presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// PresetByName resolves a -scenario flag value.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("cluster: unknown scenario %q (have %s)", name, strings.Join(PresetNames(), ", "))
}
