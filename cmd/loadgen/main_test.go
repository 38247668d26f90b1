package main

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"sealedbottle/internal/experiments/cluster"
	"sealedbottle/internal/leakcheck"
)

// TestMain fails the package when a run leaves a ring, a courier or a
// server connection running.
func TestMain(m *testing.M) {
	leakcheck.Main(m, "sealedbottle/internal/broker/transport", "sealedbottle/internal/client")
}

// TestResolveShape pins how the workload flags resolve to what cluster.Run
// drives: -scenario names the preset (none: the zero Preset, an open loop)
// and the size flags fill the ScenarioConfig.
func TestResolveShape(t *testing.T) {
	opts := options{bottles: 48, submitters: 2, sweepers: 3, sweepLimit: 16, batch: 4, seed: 7, validity: time.Minute}
	wantCfg := cluster.ScenarioConfig{Bottles: 48, Submitters: 2, Sweepers: 3, SweepLimit: 16, Batch: 4, Seed: 7, Validity: time.Minute}
	for _, scenario := range []string{"", "burst", "churn", "adversarial", "zipf", "lossy"} {
		name := scenario
		if name == "" {
			name = "open-loop"
		}
		t.Run(name, func(t *testing.T) {
			opts.scenario = scenario
			preset, cfg, err := resolveShape(opts)
			if err != nil {
				t.Fatalf("resolveShape: %v", err)
			}
			var want cluster.Preset
			if scenario != "" {
				if want, err = cluster.PresetByName(scenario); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(preset, want) {
				t.Errorf("preset = %+v, want %+v", preset, want)
			}
			if cfg != wantCfg {
				t.Errorf("config = %+v, want %+v", cfg, wantCfg)
			}
		})
	}
}

func TestResolveShapeRejectsUnknownScenario(t *testing.T) {
	if _, _, err := resolveShape(options{scenario: "nope"}); err == nil {
		t.Fatalf("resolveShape accepted an unknown scenario")
	}
}

// TestImposterRefused pins that loadgen, which never holds the racks'
// signing key, refuses the identity attacks instead of running a plain
// workload, in-process and over TCP alike.
func TestImposterRefused(t *testing.T) {
	for _, addrs := range []string{"", "127.0.0.1:1"} {
		err := run(io.Discard, options{addrs: addrs, scenario: "imposter", racks: 1, replication: 1})
		if err == nil || !strings.Contains(err.Error(), "Secured") {
			t.Errorf("run(-addrs %q -scenario imposter) = %v, want the Secured-topology refusal", addrs, err)
		}
	}
}

// TestRunOutputLines runs one small in-process cluster and parses the two
// lines CI reads: the rack counters and the verified lines.
func TestRunOutputLines(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, options{
		racks: 3, replication: 2, shards: 4,
		bottles: 48, submitters: 2, sweepers: 2, batch: 4, sweepLimit: 32,
		validity: 5 * time.Minute, timeout: 30 * time.Second, seed: 1,
		verifyCounts: true,
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var submitted string
	verified := 0
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "rack ") {
			for _, f := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(f, "submitted="); ok {
					submitted = v
				}
			}
		}
		if strings.HasPrefix(line, "verified ") {
			verified++
		}
	}
	if submitted != "96" {
		t.Errorf("rack line reports submitted=%q, want 96 (48 bottles x R=2)", submitted)
	}
	if verified != 2 {
		t.Errorf("%d verified lines, want 2 (counts and checker)\n%s", verified, out.String())
	}
}
