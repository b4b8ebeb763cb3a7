package server

// The metrics bridge: one statsSnapshot feeds both GET /v1/stats (JSON)
// and GET /metrics (Prometheus text). The JSON handler renders the
// snapshot directly; the registry sampler below maps the same snapshot
// onto declared metric families at scrape time. Neither endpoint has
// counters of its own, so the two can never disagree about a number.
// Only the HTTP request metrics (and build info) are native registry
// instruments — they have no /v1/stats counterpart.

import (
	"time"

	"repro/internal/obs"
	"repro/wire"
)

// metricPrefix namespaces every depminerd metric family.
const metricPrefix = "depminerd"

// statsSnapshot assembles the full operational state of the server —
// the single source both /v1/stats and the sampled /metrics families
// read from.
func (s *Server) statsSnapshot() StatsResponse {
	s.stats.mu.Lock()
	disc := DiscoveryStats{
		Total:        s.stats.total,
		Partial:      s.stats.partial,
		Failed:       s.stats.failed,
		Sync:         s.stats.sync,
		Async:        s.stats.async,
		PhaseTotalMS: make(map[string]float64, len(s.stats.phases)),
	}
	for name, d := range s.stats.phases {
		disc.PhaseTotalMS[name] = float64(d) / float64(time.Millisecond)
	}
	ps := PstoreStats{
		Hits:       s.stats.pstore.Hits,
		Misses:     s.stats.pstore.Misses,
		Evictions:  s.stats.pstore.Evictions,
		Recomputes: s.stats.pstore.Recomputes,
		PeakBytes:  s.stats.pstore.PeakBytes,
	}
	sp := SpillStats{
		RunsSpilled:  s.stats.spill.RunsSpilled,
		SpilledSets:  s.stats.spill.SpilledSets,
		SpilledBytes: s.stats.spill.SpilledBytes,
		MergedRuns:   s.stats.spill.MergedRuns,
		ReadBlocks:   s.stats.spill.ReadBlocks,
	}
	shc := s.stats.shard
	s.stats.mu.Unlock()
	resp := StatsResponse{
		UptimeMS:    float64(time.Since(s.started)) / float64(time.Millisecond),
		Draining:    s.Draining(),
		Datasets:    s.reg.count(),
		Jobs:        s.jobs.stats(),
		Cache:       s.cache.stats(),
		Discoveries: disc,
		Pstore:      ps,
		Spill:       sp,
	}
	if s.store != nil {
		st := s.store.Stats()
		dur := &wire.DurableStats{
			Datasets:        st.Datasets,
			AppendRecords:   st.AppendRecords,
			Syncs:           st.Syncs,
			BatchedRecords:  st.BatchedRecords,
			Snapshots:       st.Snapshots,
			CompactErrors:   st.CompactErrors,
			WALBytes:        st.WALBytes,
			Recovered:       st.Recovered,
			ReplayedRecords: st.ReplayedRecords,
			TruncatedTails:  st.TruncatedTails,
			Quarantined:     st.Quarantined,
			Broken:          st.Broken,
		}
		for _, q := range s.recovery.Quarantined {
			dur.QuarantinedSets = append(dur.QuarantinedSets, wire.QuarantinedDataset{
				ID: q.ID, Reason: q.Reason, Path: q.Path,
			})
		}
		resp.Durable = dur
	}
	if s.coord != nil || shc.active() {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		resp.Shard = &wire.ShardStats{
			Dispatched:      shc.dispatched,
			Remote:          shc.remote,
			LocalFallbacks:  shc.localFallbacks,
			DatasetsPushed:  shc.datasetsPushed,
			ReceivedSets:    shc.receivedSets,
			ReceivedBytes:   shc.receivedBytes,
			DispatchTotalMS: ms(shc.dispatchTime),
			StreamTotalMS:   ms(shc.streamTime),
			MergeTotalMS:    ms(shc.mergeTime),
			Served:          shc.served,
			ServedSets:      shc.servedSets,
			ServedErrors:    shc.servedErrors,
		}
	}
	return resp
}

// registerStatsMetrics declares the sampled metric families and installs
// the one sampler that maps a statsSnapshot onto them per scrape.
func (s *Server) registerStatsMetrics(reg *obs.Registry) {
	const p = metricPrefix
	type fam struct {
		name  string
		help  string
		gauge bool
	}
	fams := []fam{
		{p + "_uptime_seconds", "Seconds since the server started.", true},
		{p + "_draining", "1 once Shutdown began, 0 while serving.", true},
		{p + "_datasets", "Registered datasets.", true},

		{p + "_jobs_cap", "Admission cap on concurrently running discoveries.", true},
		{p + "_jobs_running", "Discoveries currently holding an admission slot.", true},
		{p + "_jobs_peak_running", "High-water mark of concurrently running discoveries.", true},
		{p + "_jobs_retained", "Retained finished async job records.", true},
		{p + "_jobs_admitted_total", "Discoveries admitted past the job cap.", false},
		{p + "_jobs_rejected_total", "Discoveries rejected with 429 at the job cap.", false},

		{p + "_cache_entries", "Result-cache entries resident.", true},
		{p + "_cache_hits_total", "Result-cache hits.", false},
		{p + "_cache_misses_total", "Result-cache misses.", false},
		{p + "_cache_evictions_total", "Result-cache LRU evictions.", false},
		{p + "_cache_invalidations_total", "Result-cache entries invalidated by appends.", false},

		{p + "_discoveries_total", "Discoveries finished, any outcome.", false},
		{p + "_discoveries_partial_total", "Discoveries cut off by governance (partial results).", false},
		{p + "_discoveries_failed_total", "Discoveries that failed outright.", false},
		{p + "_discoveries_sync_total", "Discoveries served synchronously.", false},
		{p + "_discoveries_async_total", "Discoveries served as async jobs.", false},
		{p + "_phase_seconds_total", "Cumulative discovery pipeline time by phase.", false},

		{p + "_pstore_hits_total", "Partition-store hits (tane).", false},
		{p + "_pstore_misses_total", "Partition-store misses (tane).", false},
		{p + "_pstore_evictions_total", "Partition-store evictions (tane).", false},
		{p + "_pstore_recomputes_total", "Partitions recomputed after eviction (tane).", false},
		{p + "_pstore_peak_bytes", "Peak resident partition bytes across tane runs.", true},

		{p + "_spill_runs_total", "Agree-set runs spilled to disk.", false},
		{p + "_spill_sets_total", "Agree sets written to spill runs.", false},
		{p + "_spill_bytes_total", "Bytes written to spill runs.", false},
		{p + "_spill_merged_runs_total", "Spill runs fed back through the k-way merge.", false},
		{p + "_spill_read_blocks_total", "CRC-framed blocks read back from spill runs.", false},

		{p + "_durable_datasets", "Datasets with a durable handle.", true},
		{p + "_durable_append_records_total", "WAL append records acknowledged.", false},
		{p + "_durable_syncs_total", "WAL fsync calls.", false},
		{p + "_durable_batched_records_total", "WAL records that shared a group-commit fsync.", false},
		{p + "_durable_snapshots_total", "Background snapshot compactions completed.", false},
		{p + "_durable_compact_errors_total", "Background compactions that failed.", false},
		{p + "_durable_wal_bytes", "Live WAL bytes on disk.", true},
		{p + "_durable_recovered", "Datasets recovered at the last boot.", true},
		{p + "_durable_replayed_records_total", "WAL records replayed at the last boot.", false},
		{p + "_durable_truncated_tails_total", "Torn WAL tails truncated at the last boot.", false},
		{p + "_durable_quarantined", "Datasets quarantined by recovery.", true},
		{p + "_durable_broken", "Datasets sticky-broken by a durability failure (read-only until restart).", true},

		{p + "_shard_dispatched_total", "Shards dispatched by this coordinator.", false},
		{p + "_shard_remote_total", "Shards served remotely by a worker.", false},
		{p + "_shard_local_fallbacks_total", "Shards computed locally after a remote failure.", false},
		{p + "_shard_datasets_pushed_total", "Datasets pushed to cold workers.", false},
		{p + "_shard_received_sets_total", "Agree sets received from worker streams.", false},
		{p + "_shard_received_bytes_total", "Bytes received from worker streams.", false},
		{p + "_shard_dispatch_seconds_total", "Cumulative dispatch time (request to first stream byte).", false},
		{p + "_shard_stream_seconds_total", "Cumulative stream-adoption time.", false},
		{p + "_shard_merge_seconds_total", "Cumulative coordinator merge time.", false},
		{p + "_shard_served_total", "Shard requests this worker served to completion.", false},
		{p + "_shard_served_sets_total", "Agree sets this worker streamed out.", false},
		{p + "_shard_served_errors_total", "Shard requests this worker failed.", false},
	}
	for _, f := range fams {
		kind := obs.KindCounterFamily
		if f.gauge {
			kind = obs.KindGaugeFamily
		}
		reg.DeclareSampled(f.name, f.help, kind)
	}

	reg.Sampler(func(emit obs.EmitFunc) {
		st := s.statsSnapshot()
		e := func(name string, v float64) { emit(name, nil, v) }
		b01 := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		e(p+"_uptime_seconds", st.UptimeMS/1000)
		e(p+"_draining", b01(st.Draining))
		e(p+"_datasets", float64(st.Datasets))

		e(p+"_jobs_cap", float64(st.Jobs.Cap))
		e(p+"_jobs_running", float64(st.Jobs.Running))
		e(p+"_jobs_peak_running", float64(st.Jobs.PeakRunning))
		e(p+"_jobs_retained", float64(st.Jobs.Retained))
		e(p+"_jobs_admitted_total", float64(st.Jobs.Admitted))
		e(p+"_jobs_rejected_total", float64(st.Jobs.Rejected))

		e(p+"_cache_entries", float64(st.Cache.Entries))
		e(p+"_cache_hits_total", float64(st.Cache.Hits))
		e(p+"_cache_misses_total", float64(st.Cache.Misses))
		e(p+"_cache_evictions_total", float64(st.Cache.Evictions))
		e(p+"_cache_invalidations_total", float64(st.Cache.Invalidations))

		e(p+"_discoveries_total", float64(st.Discoveries.Total))
		e(p+"_discoveries_partial_total", float64(st.Discoveries.Partial))
		e(p+"_discoveries_failed_total", float64(st.Discoveries.Failed))
		e(p+"_discoveries_sync_total", float64(st.Discoveries.Sync))
		e(p+"_discoveries_async_total", float64(st.Discoveries.Async))
		for phase, ms := range st.Discoveries.PhaseTotalMS {
			emit(p+"_phase_seconds_total", []obs.Label{{Name: "phase", Value: phase}}, ms/1000)
		}

		e(p+"_pstore_hits_total", float64(st.Pstore.Hits))
		e(p+"_pstore_misses_total", float64(st.Pstore.Misses))
		e(p+"_pstore_evictions_total", float64(st.Pstore.Evictions))
		e(p+"_pstore_recomputes_total", float64(st.Pstore.Recomputes))
		e(p+"_pstore_peak_bytes", float64(st.Pstore.PeakBytes))

		e(p+"_spill_runs_total", float64(st.Spill.RunsSpilled))
		e(p+"_spill_sets_total", float64(st.Spill.SpilledSets))
		e(p+"_spill_bytes_total", float64(st.Spill.SpilledBytes))
		e(p+"_spill_merged_runs_total", float64(st.Spill.MergedRuns))
		e(p+"_spill_read_blocks_total", float64(st.Spill.ReadBlocks))

		if d := st.Durable; d != nil {
			e(p+"_durable_datasets", float64(d.Datasets))
			e(p+"_durable_append_records_total", float64(d.AppendRecords))
			e(p+"_durable_syncs_total", float64(d.Syncs))
			e(p+"_durable_batched_records_total", float64(d.BatchedRecords))
			e(p+"_durable_snapshots_total", float64(d.Snapshots))
			e(p+"_durable_compact_errors_total", float64(d.CompactErrors))
			e(p+"_durable_wal_bytes", float64(d.WALBytes))
			e(p+"_durable_recovered", float64(d.Recovered))
			e(p+"_durable_replayed_records_total", float64(d.ReplayedRecords))
			e(p+"_durable_truncated_tails_total", float64(d.TruncatedTails))
			e(p+"_durable_quarantined", float64(d.Quarantined))
			e(p+"_durable_broken", float64(d.Broken))
		}
		if sh := st.Shard; sh != nil {
			e(p+"_shard_dispatched_total", float64(sh.Dispatched))
			e(p+"_shard_remote_total", float64(sh.Remote))
			e(p+"_shard_local_fallbacks_total", float64(sh.LocalFallbacks))
			e(p+"_shard_datasets_pushed_total", float64(sh.DatasetsPushed))
			e(p+"_shard_received_sets_total", float64(sh.ReceivedSets))
			e(p+"_shard_received_bytes_total", float64(sh.ReceivedBytes))
			e(p+"_shard_dispatch_seconds_total", sh.DispatchTotalMS/1000)
			e(p+"_shard_stream_seconds_total", sh.StreamTotalMS/1000)
			e(p+"_shard_merge_seconds_total", sh.MergeTotalMS/1000)
			e(p+"_shard_served_total", float64(sh.Served))
			e(p+"_shard_served_sets_total", float64(sh.ServedSets))
			e(p+"_shard_served_errors_total", float64(sh.ServedErrors))
		}
	})
}
