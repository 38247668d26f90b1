package broker

import "sealedbottle/internal/obs"

// CollectStats bridges a Stats snapshot into the metrics exposition. The
// rack's counters already exist on ShardStats/Stats — duplicating them into
// registry counters would mean double bookkeeping on the hot path — so the
// ops server registers a scrape-time collector that snapshots Stats once and
// emits through here. Counter semantics hold because every Stats field is
// monotonic over a rack's lifetime (Held and WALBytes, the exceptions, are
// gauges).
//
// sealedbottle_submitted_total is contractual: the CI cluster smoke
// cross-checks its sum across racks against loadgen's verified count.
func CollectStats(e *obs.Emitter, st Stats) {
	e.Gauge("sealedbottle_shards", "Shard count of the rack.", float64(st.Shards))
	e.Gauge("sealedbottle_held", "Bottles currently on the rack.", float64(st.Held))
	t := st.Totals
	e.Counter("sealedbottle_submitted_total", "Bottles accepted by Submit/SubmitBatch.", t.Submitted)
	e.Counter("sealedbottle_duplicates_total", "Submissions refused as duplicate IDs.", t.Duplicates)
	e.Counter("sealedbottle_expired_total", "Bottles reaped after their deadline.", t.Expired)
	e.Counter("sealedbottle_sweeps_total", "Sweep operations served.", t.Sweeps)
	e.Counter("sealedbottle_swept_scanned_total", "Live bottles screened by sweeps.", t.Scanned)
	e.Counter("sealedbottle_swept_rejected_total", "Bottles rejected by the residue prefilter.", t.Rejected)
	e.Counter("sealedbottle_swept_returned_total", "Bottles returned to sweepers.", t.Returned)
	e.Counter("sealedbottle_replies_in_total", "Replies accepted by Reply/ReplyBatch.", t.RepliesIn)
	e.Counter("sealedbottle_replies_out_total", "Replies drained by Fetch/FetchBatch.", t.RepliesOut)
	e.Counter("sealedbottle_replies_dropped_total", "Replies dropped against the per-bottle queue bound.", t.RepliesDropped)
	e.Counter("sealedbottle_recovered_total", "Bottles recovered from the WAL at startup.", st.Recovered)
	e.Gauge("sealedbottle_wal_bytes", "Live WAL size in bytes.", float64(st.WALBytes))
	e.Counter("sealedbottle_sweep_cursor_resets_total", "Sweeps whose cursor was of another rack epoch, screened from zero.", st.CursorResets)
	r := st.Replication
	e.Counter("sealedbottle_hints_queued_total", "Handoff records queued for unreachable peers.", r.HintsQueued)
	e.Counter("sealedbottle_hints_streamed_total", "Queued handoff records streamed to their peer.", r.HintsStreamed)
	e.Counter("sealedbottle_hints_dropped_total", "Handoff records dropped against the hint-queue bound.", r.HintsDropped)
	e.Counter("sealedbottle_handoff_applied_total", "Handoff records applied from peers.", r.HandoffApplied)
	e.Counter("sealedbottle_read_repairs_total", "Replica divergences repaired on read.", r.ReadRepairs)
	e.Counter("sealedbottle_replica_dedup_total", "Duplicate replica results merged away.", r.ReplicaDedup)
}

// CollectAdmission bridges the admission controller's counters into the
// exposition; a nil controller emits zeros so the series exist either way.
func CollectAdmission(e *obs.Emitter, a *Admission) {
	rate, burst := a.Limits()
	e.Counter("sealedbottle_admission_shed_total", "Operations shed by per-identity admission quota.", a.Shed())
	e.Counter("sealedbottle_admission_evicted_total", "Admission buckets evicted at the table bound before refilling.", a.Evicted())
	e.Gauge("sealedbottle_admission_rate", "Admission rate limit per identity (ops/s; 0 = disabled).", rate)
	e.Gauge("sealedbottle_admission_burst", "Admission burst capacity per identity (0 = disabled).", burst)
}
