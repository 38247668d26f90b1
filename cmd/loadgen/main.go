// Command loadgen drives a bottle-rack cluster with one of the experiment
// suite's scenarios: it is flags over internal/experiments/cluster.Run.
// Submitters race sealed-bottle requests in (SubmitBatch when -batch > 1),
// sweepers sweep, evaluate and reply, every submitter drains its replies, and
// the suite's invariant checker holds the run to exactly-once evaluation,
// prefilter soundness, no reply loss and no cross-client leakage. A
// violation, or a run that does not drain, exits nonzero.
//
// By default -racks racks run in-process, each behind its own pipe transport:
//
//	loadgen -racks 3 -replication 2 -scenario churn
//
// -addrs a:7117,b:7117,c:7117 drives racks serving on TCP instead, secured by
// -tls-ca, -tls-cert, -tls-key and -token. -verify-counts asserts that the
// racks' summed submitted counters equal the bottles acknowledged times R,
// which holds only on fresh racks. -scenario names a preset
// (docs/EXPERIMENTS.md); without one the run is an open loop. The imposter
// preset needs racks whose signing key the harness holds, which loadgen never
// builds; `benchtables -cluster imposter` runs it.
package main

import (
	"context"
	"crypto/tls"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"sealedbottle"
	"sealedbottle/internal/auth"
	"sealedbottle/internal/experiments/cluster"
)

// conns is the connection pool size of each rack's courier.
const conns = 4

type options struct {
	addrs, scenario                                  string
	tlsCA, tlsCert, tlsKey, token                    string
	racks, replication, shards                       int
	bottles, submitters, sweepers, batch, sweepLimit int
	validity, timeout                                time.Duration
	seed                                             int64
	verifyCounts                                     bool
}

func main() {
	var opts options
	flag.StringVar(&opts.addrs, "addrs", "", "comma-separated rack TCP addresses (empty: in-process racks over pipe transports)")
	flag.IntVar(&opts.racks, "racks", 1, "in-process cluster size when no address is given")
	flag.IntVar(&opts.bottles, "bottles", 20_000, "bottles to submit")
	flag.IntVar(&opts.submitters, "submitters", 8, "concurrent submitter clients")
	flag.IntVar(&opts.sweepers, "sweepers", 4, "concurrent sweeper clients")
	flag.IntVar(&opts.sweepLimit, "sweep-limit", 64, "bottles returned per sweep")
	flag.IntVar(&opts.shards, "shards", 32, "rack shards (in-process racks)")
	flag.IntVar(&opts.batch, "batch", 1, "bottles per submit round trip (SubmitBatch when >1)")
	flag.DurationVar(&opts.validity, "validity", 5*time.Minute, "request validity window; must outlast the run")
	flag.DurationVar(&opts.timeout, "timeout", 30*time.Second, "per-call timeout")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed")
	flag.BoolVar(&opts.verifyCounts, "verify-counts", false, "fail unless the racks' submitted counters equal the bottles acknowledged times R (fresh racks only)")
	flag.IntVar(&opts.replication, "replication", 1, "ring replication factor R: each bottle is racked on the top-R rendezvous racks")
	flag.StringVar(&opts.scenario, "scenario", "", "workload scenario preset: "+strings.Join(cluster.PresetNames(), ", ")+" (empty: open loop)")
	flag.StringVar(&opts.tlsCA, "tls-ca", "", "root CA certificate PEM: verify rack server certificates and wrap every connection in TLS (-addrs only)")
	flag.StringVar(&opts.tlsCert, "tls-cert", "", "client certificate PEM presented to racks that demand mTLS (requires -tls-ca and -tls-key)")
	flag.StringVar(&opts.tlsKey, "tls-key", "", "client key PEM paired with -tls-cert")
	flag.StringVar(&opts.token, "token", "", "capability token presented in the connection HELLO: hex string or @FILE holding the raw bytes `sealedbottle token -out` writes")
	flag.Parse()

	if err := run(os.Stdout, opts); err != nil {
		log.Fatalf("loadgen: %v", err)
	}
}

// resolveShape maps the workload flags onto the scenario Run drives: the
// preset named by -scenario (the zero Preset, an open loop, without one) and
// the run's size.
func resolveShape(opts options) (cluster.Preset, cluster.ScenarioConfig, error) {
	var preset cluster.Preset
	if opts.scenario != "" {
		var err error
		if preset, err = cluster.PresetByName(opts.scenario); err != nil {
			return cluster.Preset{}, cluster.ScenarioConfig{}, err
		}
	}
	return preset, cluster.ScenarioConfig{
		Bottles:    opts.bottles,
		Submitters: opts.submitters,
		Sweepers:   opts.sweepers,
		Seed:       opts.seed,
		Validity:   opts.validity,
		SweepLimit: opts.sweepLimit,
		Batch:      opts.batch,
	}, nil
}

// loadSecurity resolves the client-side identity flags: a TLS config built
// from the CA (plus an optional mTLS keypair) and the raw capability token.
// Both only make sense against racks on TCP.
func loadSecurity(opts options) (tlsConf *tls.Config, token []byte, err error) {
	if (opts.tlsCert != "") != (opts.tlsKey != "") {
		return nil, nil, errors.New("-tls-cert and -tls-key must be given together")
	}
	if opts.tlsCert != "" && opts.tlsCA == "" {
		return nil, nil, errors.New("-tls-cert/-tls-key require -tls-ca")
	}
	if (opts.tlsCA != "" || opts.token != "") && opts.addrs == "" {
		return nil, nil, errors.New("-tls-ca/-token require -addrs (the in-process racks run unsecured)")
	}
	if opts.tlsCA != "" {
		ca, err := os.ReadFile(opts.tlsCA)
		if err != nil {
			return nil, nil, fmt.Errorf("reading -tls-ca: %w", err)
		}
		var cert, key []byte
		if opts.tlsCert != "" {
			if cert, err = os.ReadFile(opts.tlsCert); err != nil {
				return nil, nil, fmt.Errorf("reading -tls-cert: %w", err)
			}
			if key, err = os.ReadFile(opts.tlsKey); err != nil {
				return nil, nil, fmt.Errorf("reading -tls-key: %w", err)
			}
		}
		if tlsConf, err = auth.ClientTLS(ca, cert, key); err != nil {
			return nil, nil, err
		}
	}
	if strings.HasPrefix(opts.token, "@") {
		if token, err = os.ReadFile(opts.token[1:]); err != nil {
			return nil, nil, fmt.Errorf("reading -token file: %w", err)
		}
	} else if opts.token != "" {
		if token, err = hex.DecodeString(strings.TrimSpace(opts.token)); err != nil {
			return nil, nil, fmt.Errorf("decoding -token hex: %w", err)
		}
	}
	return tlsConf, token, nil
}

// harness dials the racks at -addrs, or starts -racks of them in-process.
func harness(opts options) (*cluster.Harness, error) {
	tlsConf, token, err := loadSecurity(opts)
	if err != nil {
		return nil, err
	}
	if opts.addrs == "" {
		return cluster.NewHarness(cluster.Topology{
			Racks:       opts.racks,
			Replication: opts.replication,
			Shards:      opts.shards,
			CallTimeout: opts.timeout,
		})
	}
	return cluster.DialHarness(strings.Split(opts.addrs, ","), opts.replication, sealedbottle.CourierConfig{
		Conns:       conns,
		CallTimeout: opts.timeout,
		TLS:         tlsConf,
		Token:       token,
	})
}

func run(w io.Writer, opts options) error {
	preset, cfg, err := resolveShape(opts)
	if err != nil {
		return err
	}
	h, err := harness(opts)
	if err != nil {
		return err
	}
	defer h.Close()
	rep, err := cluster.Run(context.Background(), h, preset, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, cluster.ReportTable(rep).Render())
	fmt.Fprintf(w, "submitted  %d bottles in %v (%.0f bottles/sec, batch=%d)\n",
		rep.Bottles, rep.Elapsed.Round(time.Millisecond), float64(rep.Bottles)/rep.Elapsed.Seconds(), cfg.Batch)
	fmt.Fprintf(w, "submit     p50 / p95 / p99 %v\n", rep.SubmitLatency)
	fmt.Fprintf(w, "sweep      p50 / p95 / p99 %v\n", rep.SweepLatency)
	st := rep.ClusterStats
	fmt.Fprintf(w, "rack       shards=%d workers=%d held=%d submitted=%d scanned=%d prefilter-reject=%.1f%% match=%.1f%% replies=%d\n",
		st.Shards, st.Workers, st.Held, st.Totals.Submitted, st.Totals.Scanned,
		100*st.PrefilterRejectRate(), 100*st.MatchRate(), st.Totals.RepliesIn)
	if rep.Replication > 1 {
		fmt.Fprintf(w, "replica    dedup=%d read-repairs=%d hints q/s/drop=%d/%d/%d handoff=%d\n",
			st.Replication.ReplicaDedup, st.Replication.ReadRepairs,
			st.Replication.HintsQueued, st.Replication.HintsStreamed,
			st.Replication.HintsDropped, st.Replication.HandoffApplied)
	}

	for _, v := range rep.Violations {
		fmt.Fprintf(w, "violation  %s\n", v)
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d invariant violation(s)", len(rep.Violations))
	}
	if !rep.Drained {
		return errors.New("the run did not drain: promised evaluations never landed")
	}
	if opts.verifyCounts {
		// Every acknowledged bottle is racked on min(R, racks) replicas.
		factor := min(rep.Replication, rep.Racks)
		if got, want := st.Totals.Submitted, uint64(rep.Bottles*factor); got != want {
			return fmt.Errorf("count mismatch: brokers report %d bottles submitted, loadgen racked %d x R=%d", got, rep.Bottles, factor)
		}
		fmt.Fprintf(w, "verified   broker submitted counters match loadgen (%d bottles x R=%d)\n", rep.Bottles, factor)
	}
	fmt.Fprintf(w, "verified   %d expected evaluations observed, %d replies drained back, no invariant violations\n",
		rep.ExpectedEvaluations, rep.FetchedReplies)
	return nil
}
