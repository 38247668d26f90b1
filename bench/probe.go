package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"sealedbottle"
	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/core"
)

// probeRounds is how often a probe repeats a call that it can repeat.
const probeRounds = 32

// timeEach runs fn n times and returns the median duration in microseconds.
func timeEach(n int, fn func(i int) error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0))/1e3)
	}
	return median(times), nil
}

// probes replays what the first client's tracer kept — packages it submitted,
// a sweep query with a full seen window and that sweep's result — against
// single layers: the codec's functions, an in-memory and a durable rack
// called directly, and a plain and a TLS connection to the same rack.
func (r *runner) probes(ctx context.Context, m map[string]metric) error {
	tr := r.tracers[0]
	raws, query, result := tr.submitted, tr.query, tr.result
	haveQuery := len(query.Residues) > 0
	us := func(v float64) metric { return metric{v, "us"} }
	for _, name := range []string{"codec.sweep_query_us", "codec.sweep_result_us", "shard.sweep_us"} {
		m[name] = us(0)
	}
	m["codec.sweep_query_bytes"] = metric{0, "bytes"}

	if haveQuery {
		v, err := timeEach(probeRounds, func(int) error {
			_, err := broker.UnmarshalSweepQuery(broker.MarshalSweepQuery(query))
			return err
		})
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		m["codec.sweep_query_us"] = us(v)
		m["codec.sweep_query_bytes"] = metric{float64(len(broker.MarshalSweepQuery(query))), "bytes"}
		v, err = timeEach(probeRounds, func(int) error {
			_, err := broker.UnmarshalSweepResult(broker.MarshalSweepResult(result))
			return err
		})
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		m["codec.sweep_result_us"] = us(v)
	}

	// Two racks loaded like the one under test, one in memory and one
	// durable, called directly: the difference is the log's.
	rackCfg := sealedbottle.RackConfig{Shards: 16, ReapInterval: -1}
	mem := sealedbottle.NewRack(rackCfg)
	defer mem.Close()
	dir, err := os.MkdirTemp(r.opt.workdir, "probe-")
	if err != nil {
		return err
	}
	defer removeDir(dir)
	rackCfg.Durability = &sealedbottle.DurabilityConfig{Dir: dir, Fsync: wal.PolicyInterval}
	dur, err := sealedbottle.OpenRack(rackCfg)
	if err != nil {
		return err
	}
	defer dur.Close()
	for _, rack := range []*sealedbottle.Rack{mem, dur} {
		if _, err := submitAll(ctx, rack, r.corpus.standing); err != nil {
			return fmt.Errorf("probe load: %w", err)
		}
	}
	submit := func(rack *sealedbottle.Rack) (float64, error) {
		return timeEach(len(raws), func(i int) error {
			_, err := rack.Submit(ctx, raws[i])
			return err
		})
	}
	memSubmit, err := submit(mem)
	if err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	durSubmit, err := submit(dur)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	m["shard.submit_us"] = us(memSubmit)
	m["wal.commit_us"] = us(durSubmit - memSubmit)
	if haveQuery {
		v, err := timeEach(probeRounds, func(int) error {
			_, err := mem.Sweep(ctx, query)
			return err
		})
		if err != nil {
			return fmt.Errorf("shard probe: %w", err)
		}
		m["shard.sweep_us"] = us(v)
	}

	// The same calls over a plain and a TLS connection to the in-memory rack.
	creds := r.creds
	if creds == nil {
		if creds, err = newCredentials(); err != nil {
			return err
		}
	}
	replay := func(secured bool) (float64, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer l.Close()
		var opts sealedbottle.ServerOptions
		cfg := sealedbottle.CourierConfig{Addr: l.Addr().String()}
		if secured {
			if opts.TLS, err = auth.ServerTLS(creds.certPEM, creds.keyPEM, nil); err != nil {
				return 0, err
			}
			if cfg.TLS, err = auth.ClientTLS(creds.caPEM, nil, nil); err != nil {
				return 0, err
			}
		}
		srv := sealedbottle.NewServer(mem, opts)
		defer srv.Close()
		go srv.Serve(l)
		courier, err := sealedbottle.Dial(cfg)
		if err != nil {
			return 0, err
		}
		defer courier.Close()
		if _, err := courier.Stats(ctx); err != nil {
			return 0, err
		}
		return timeEach(len(raws), func(i int) error {
			if haveQuery {
				if _, err := courier.Sweep(ctx, query); err != nil {
					return err
				}
			}
			_, err := courier.Submit(ctx, raws[i])
			return err
		})
	}
	// takeDown clears the recorded packages off the in-memory rack, so that
	// the next replay can rack them again.
	takeDown := func() error {
		for _, raw := range raws {
			v, err := core.UnmarshalPackageView(raw)
			if err != nil {
				return err
			}
			if _, err := mem.Remove(ctx, v.ID); err != nil {
				return err
			}
		}
		return nil
	}
	if err := takeDown(); err != nil {
		return fmt.Errorf("tls probe: %w", err)
	}
	plain, err := replay(false)
	if err != nil {
		return fmt.Errorf("tls probe (plain): %w", err)
	}
	if err := takeDown(); err != nil {
		return fmt.Errorf("tls probe: %w", err)
	}
	secured, err := replay(true)
	if err != nil {
		return fmt.Errorf("tls probe (tls): %w", err)
	}
	m["transport.tls_overhead_us"] = us(secured - plain)

	// auth: the first call on a fresh TLS connection that presents a token.
	m["auth.handshake_ms"] = metric{0, "ms"}
	if r.w.topo.secured {
		ctls, err := auth.ClientTLS(creds.caPEM, nil, nil)
		if err != nil {
			return err
		}
		v, err := timeEach(5, func(int) error {
			courier, err := sealedbottle.Dial(sealedbottle.CourierConfig{Addr: r.sys.racks[0].addr(), TLS: ctls, Token: creds.token})
			if err != nil {
				return err
			}
			defer courier.Close()
			_, err = courier.Stats(ctx)
			return err
		})
		if err != nil {
			return fmt.Errorf("handshake probe: %w", err)
		}
		m["auth.handshake_ms"] = metric{v / 1e3, "ms"}
	}
	return nil
}
