package client

import (
	"time"

	"sealedbottle/internal/obs"
)

// Client-side observability: the ring's health-transition counters and
// per-rack gauges, and the sweeper's cycle instrumentation. Per-opcode
// round-trip histograms come from the transport layer — set
// Config.Metrics / RingConfig.Courier.Metrics to a transport.ClientMetrics
// and every pooled connection records into it.

// ringMetrics holds the ring's registered transition counters; gauges are
// scrape-time collectors because membership is dynamic.
type ringMetrics struct {
	ejections    *obs.Counter
	readmissions *obs.Counter
}

// RegisterMetrics registers the ring's health and replication series on reg:
// ejection/readmission transition counters, per-rack down/consecutive-fail
// gauges (labelled by rack name, following membership changes at scrape
// time), and the ring-side replication counters (read repairs, replica
// dedup, hints queued via relays).
func (r *Ring) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.metrics.Store(&ringMetrics{
		ejections: reg.Counter("sealedbottle_ring_ejections_total",
			"Racks ejected from routing after consecutive faults."),
		readmissions: reg.Counter("sealedbottle_ring_readmissions_total",
			"Ejected racks re-admitted after answering again."),
	})
	reg.RegisterFunc(func(e *obs.Emitter) {
		health := r.Health()
		down := 0
		for _, h := range health {
			v := 0.0
			if h.Down {
				v, down = 1, down+1
			}
			l := obs.Label{Key: "rack", Value: h.Name}
			e.Gauge("sealedbottle_ring_rack_down",
				"1 while the rack is ejected from routing.", v, l)
			e.Gauge("sealedbottle_ring_rack_consecutive_fails",
				"Current run of rack faults.", float64(h.ConsecutiveFails), l)
		}
		e.Gauge("sealedbottle_ring_racks", "Racks in the ring's membership.", float64(len(health)))
		e.Gauge("sealedbottle_ring_racks_down", "Racks currently ejected.", float64(down))
		e.Counter("sealedbottle_ring_read_repairs_total",
			"Replica divergences repaired on read by this ring.", r.readRepairs.Load())
		e.Counter("sealedbottle_ring_replica_dedup_total",
			"Duplicate replica results merged away by this ring.", r.replicaDedup.Load())
		e.Counter("sealedbottle_ring_hints_sent_total",
			"Handoff records queued on a relay for an unreachable replica.", r.hintsSent.Load())
	})
}

// SweeperMetrics aggregates sweep-cycle instrumentation. One SweeperMetrics
// is registered once and shared by every sweeper recording into it (sweepers
// are per-goroutine; the counters and histogram are safe for concurrent
// use).
type SweeperMetrics struct {
	tick        *obs.Histogram
	swept       *obs.Counter
	evaluated   *obs.Counter
	matches     *obs.Counter
	replies     *obs.Counter
	replyErrors *obs.Counter
	repliesShed *obs.Counter
	duplicates  *obs.Counter
}

// NewSweeperMetrics registers the sweeper series on reg.
func NewSweeperMetrics(reg *obs.Registry) *SweeperMetrics {
	return &SweeperMetrics{
		tick: reg.Histogram("sealedbottle_sweeper_tick_seconds",
			"Duration of one sweep-evaluate-reply cycle.", nil),
		swept: reg.Counter("sealedbottle_sweeper_swept_total",
			"Bottles returned to sweeps."),
		evaluated: reg.Counter("sealedbottle_sweeper_evaluated_total",
			"Swept bottles run through the participant machinery."),
		matches: reg.Counter("sealedbottle_sweeper_matches_total",
			"Bottles the participant confirmed locally."),
		replies: reg.Counter("sealedbottle_sweeper_replies_total",
			"Replies posted successfully."),
		replyErrors: reg.Counter("sealedbottle_sweeper_reply_errors_total",
			"Reply posts that failed (transport failures retry next tick)."),
		repliesShed: reg.Counter("sealedbottle_sweeper_replies_shed_total",
			"Queued failed replies dropped because the retry queue was full."),
		duplicates: reg.Counter("sealedbottle_sweeper_duplicates_total",
			"Swept bottles dropped as copies of a bottle already handled."),
	}
}

// record accounts one completed tick.
func (m *SweeperMetrics) record(start time.Time, st TickStats) {
	m.tick.Observe(time.Since(start))
	m.swept.Add(uint64(st.Swept))
	m.evaluated.Add(uint64(st.Evaluated))
	m.matches.Add(uint64(st.Matches))
	m.replies.Add(uint64(st.Replies))
	m.replyErrors.Add(uint64(st.ReplyErrors))
	m.repliesShed.Add(uint64(st.RepliesShed))
	m.duplicates.Add(uint64(st.Duplicates))
}
