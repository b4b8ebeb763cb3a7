package server

// The metrics bridge: one statsSnapshot feeds both GET /v1/stats (JSON)
// and GET /metrics (Prometheus text). The JSON handler renders the
// snapshot directly; the registry sampler below maps the same snapshot
// onto the metric families of statsSections at scrape time. Neither
// endpoint has counters of its own, so the two can never disagree about
// a number. Only the HTTP request metrics (and build info) are native
// registry instruments — they have no /v1/stats counterpart.

import (
	"maps"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/wire"
)

// metricPrefix namespaces every depminerd metric family.
const metricPrefix = "depminerd"

// millis renders a duration in the fractional milliseconds /v1/stats
// reports.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statsSnapshot assembles the full operational state of the server —
// the single source both /v1/stats and the sampled /metrics families
// read from.
func (s *Server) statsSnapshot() StatsResponse {
	s.stats.mu.Lock()
	disc := s.stats.disc
	disc.PhaseTotalMS = maps.Clone(disc.PhaseTotalMS)
	resp := StatsResponse{
		Discoveries: disc,
		Pstore:      s.stats.pstore,
		Spill:       wire.SpillStats(s.stats.spill),
	}
	if s.coord != nil || s.stats.shard != (wire.ShardStats{}) {
		sh := s.stats.shard
		resp.Shard = &sh
	}
	s.stats.mu.Unlock()
	resp.UptimeMS = millis(time.Since(s.started))
	resp.Draining = s.Draining()
	resp.Datasets = s.reg.count()
	resp.Jobs = s.jobs.stats()
	resp.Cache = s.cache.stats()
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
	return resp
}

// statsFamily is one sampled metric family: its name after the prefix,
// its HELP text, and how a stats snapshot renders it. Following the
// Prometheus convention, a family is a counter exactly when its name
// ends in _total, and a gauge otherwise.
type statsFamily struct {
	name  string
	help  string
	value func(st *StatsResponse) float64
	// byPhase, set instead of value, maps each pipeline phase to its
	// milliseconds; the family renders one series per phase, labelled
	// phase, in seconds.
	byPhase func(st *StatsResponse) map[string]float64
}

// sampled is a family with one unlabelled series.
func sampled(name, help string, value func(st *StatsResponse) float64) statsFamily {
	return statsFamily{name: name, help: help, value: value}
}

// statsSection groups the families of one /v1/stats section. present,
// when set, reports whether a snapshot carries the section; families of
// an absent section are not emitted.
type statsSection struct {
	present  func(st *StatsResponse) bool
	families []statsFamily
}

// f64 converts a stats count to a sample value.
func f64[T int | int64](v T) float64 { return float64(v) }

// statsSections is the one table of sampled families: registerStatsMetrics
// declares from it and the sampler emits from it.
var statsSections = []statsSection{
	{families: []statsFamily{
		sampled("uptime_seconds", "Seconds since the server started.", func(st *StatsResponse) float64 { return st.UptimeMS / 1000 }),
		sampled("draining", "1 once Shutdown began, 0 while serving.", func(st *StatsResponse) float64 {
			if st.Draining {
				return 1
			}
			return 0
		}),
		sampled("datasets", "Registered datasets.", func(st *StatsResponse) float64 { return f64(st.Datasets) }),

		sampled("jobs_cap", "Admission cap on concurrently running discoveries.", func(st *StatsResponse) float64 { return f64(st.Jobs.Cap) }),
		sampled("jobs_running", "Discoveries currently holding an admission slot.", func(st *StatsResponse) float64 { return f64(st.Jobs.Running) }),
		sampled("jobs_peak_running", "High-water mark of concurrently running discoveries.", func(st *StatsResponse) float64 { return f64(st.Jobs.PeakRunning) }),
		sampled("jobs_retained", "Retained finished async job records.", func(st *StatsResponse) float64 { return f64(st.Jobs.Retained) }),
		sampled("jobs_admitted_total", "Discoveries admitted past the job cap.", func(st *StatsResponse) float64 { return f64(st.Jobs.Admitted) }),
		sampled("jobs_rejected_total", "Discoveries rejected with 429 at the job cap.", func(st *StatsResponse) float64 { return f64(st.Jobs.Rejected) }),

		sampled("cache_entries", "Result-cache entries resident.", func(st *StatsResponse) float64 { return f64(st.Cache.Entries) }),
		sampled("cache_hits_total", "Result-cache hits.", func(st *StatsResponse) float64 { return f64(st.Cache.Hits) }),
		sampled("cache_misses_total", "Result-cache misses.", func(st *StatsResponse) float64 { return f64(st.Cache.Misses) }),
		sampled("cache_evictions_total", "Result-cache LRU evictions.", func(st *StatsResponse) float64 { return f64(st.Cache.Evictions) }),
		sampled("cache_invalidations_total", "Result-cache entries invalidated by appends.", func(st *StatsResponse) float64 { return f64(st.Cache.Invalidations) }),

		sampled("discoveries_total", "Discoveries finished, any outcome.", func(st *StatsResponse) float64 { return f64(st.Discoveries.Total) }),
		sampled("discoveries_partial_total", "Discoveries cut off by governance (partial results).", func(st *StatsResponse) float64 { return f64(st.Discoveries.Partial) }),
		sampled("discoveries_failed_total", "Discoveries that failed outright.", func(st *StatsResponse) float64 { return f64(st.Discoveries.Failed) }),
		sampled("discoveries_sync_total", "Discoveries served synchronously.", func(st *StatsResponse) float64 { return f64(st.Discoveries.Sync) }),
		sampled("discoveries_async_total", "Discoveries served as async jobs.", func(st *StatsResponse) float64 { return f64(st.Discoveries.Async) }),
		{name: "phase_seconds_total", help: "Cumulative discovery pipeline time by phase.",
			byPhase: func(st *StatsResponse) map[string]float64 { return st.Discoveries.PhaseTotalMS }},

		sampled("pstore_hits_total", "Partition-store hits (tane).", func(st *StatsResponse) float64 { return f64(st.Pstore.Hits) }),
		sampled("pstore_misses_total", "Partition-store misses (tane).", func(st *StatsResponse) float64 { return f64(st.Pstore.Misses) }),
		sampled("pstore_evictions_total", "Partition-store evictions (tane).", func(st *StatsResponse) float64 { return f64(st.Pstore.Evictions) }),
		sampled("pstore_recomputes_total", "Partitions recomputed after eviction (tane).", func(st *StatsResponse) float64 { return f64(st.Pstore.Recomputes) }),
		sampled("pstore_peak_bytes", "Peak resident partition bytes across tane runs.", func(st *StatsResponse) float64 { return f64(st.Pstore.PeakBytes) }),

		sampled("spill_runs_total", "Agree-set runs spilled to disk.", func(st *StatsResponse) float64 { return f64(st.Spill.RunsSpilled) }),
		sampled("spill_sets_total", "Agree sets written to spill runs.", func(st *StatsResponse) float64 { return f64(st.Spill.SpilledSets) }),
		sampled("spill_bytes_total", "Bytes written to spill runs.", func(st *StatsResponse) float64 { return f64(st.Spill.SpilledBytes) }),
		sampled("spill_merged_runs_total", "Spill runs fed back through the k-way merge.", func(st *StatsResponse) float64 { return f64(st.Spill.MergedRuns) }),
		sampled("spill_read_blocks_total", "CRC-framed blocks read back from spill runs.", func(st *StatsResponse) float64 { return f64(st.Spill.ReadBlocks) }),
	}},
	{present: func(st *StatsResponse) bool { return st.Durable != nil }, families: []statsFamily{
		sampled("durable_datasets", "Datasets with a durable handle.", func(st *StatsResponse) float64 { return f64(st.Durable.Datasets) }),
		sampled("durable_append_records_total", "WAL append records acknowledged.", func(st *StatsResponse) float64 { return f64(st.Durable.AppendRecords) }),
		sampled("durable_syncs_total", "WAL fsync calls.", func(st *StatsResponse) float64 { return f64(st.Durable.Syncs) }),
		sampled("durable_batched_records_total", "WAL records that shared a group-commit fsync.", func(st *StatsResponse) float64 { return f64(st.Durable.BatchedRecords) }),
		sampled("durable_snapshots_total", "Background snapshot compactions completed.", func(st *StatsResponse) float64 { return f64(st.Durable.Snapshots) }),
		sampled("durable_compact_errors_total", "Background compactions that failed.", func(st *StatsResponse) float64 { return f64(st.Durable.CompactErrors) }),
		sampled("durable_wal_bytes", "Live WAL bytes on disk.", func(st *StatsResponse) float64 { return f64(st.Durable.WALBytes) }),
		sampled("durable_recovered", "Datasets recovered at the last boot.", func(st *StatsResponse) float64 { return f64(st.Durable.Recovered) }),
		sampled("durable_replayed_records_total", "WAL records replayed at the last boot.", func(st *StatsResponse) float64 { return f64(st.Durable.ReplayedRecords) }),
		sampled("durable_truncated_tails_total", "Torn WAL tails truncated at the last boot.", func(st *StatsResponse) float64 { return f64(st.Durable.TruncatedTails) }),
		sampled("durable_quarantined", "Datasets quarantined by recovery.", func(st *StatsResponse) float64 { return f64(st.Durable.Quarantined) }),
		sampled("durable_broken", "Datasets sticky-broken by a durability failure (read-only until restart).", func(st *StatsResponse) float64 { return f64(st.Durable.Broken) }),
	}},
	{present: func(st *StatsResponse) bool { return st.Shard != nil }, families: []statsFamily{
		sampled("shard_dispatched_total", "Shards dispatched by this coordinator.", func(st *StatsResponse) float64 { return f64(st.Shard.Dispatched) }),
		sampled("shard_remote_total", "Shards served remotely by a worker.", func(st *StatsResponse) float64 { return f64(st.Shard.Remote) }),
		sampled("shard_local_fallbacks_total", "Shards computed locally after a remote failure.", func(st *StatsResponse) float64 { return f64(st.Shard.LocalFallbacks) }),
		sampled("shard_datasets_pushed_total", "Datasets pushed to cold workers.", func(st *StatsResponse) float64 { return f64(st.Shard.DatasetsPushed) }),
		sampled("shard_received_sets_total", "Agree sets received from worker streams.", func(st *StatsResponse) float64 { return f64(st.Shard.ReceivedSets) }),
		sampled("shard_received_bytes_total", "Bytes received from worker streams.", func(st *StatsResponse) float64 { return f64(st.Shard.ReceivedBytes) }),
		sampled("shard_dispatch_seconds_total", "Cumulative dispatch time (request to first stream byte).", func(st *StatsResponse) float64 { return st.Shard.DispatchTotalMS / 1000 }),
		sampled("shard_stream_seconds_total", "Cumulative stream-adoption time.", func(st *StatsResponse) float64 { return st.Shard.StreamTotalMS / 1000 }),
		sampled("shard_merge_seconds_total", "Cumulative coordinator merge time.", func(st *StatsResponse) float64 { return st.Shard.MergeTotalMS / 1000 }),
		sampled("shard_served_total", "Shard requests this worker served to completion.", func(st *StatsResponse) float64 { return f64(st.Shard.Served) }),
		sampled("shard_served_sets_total", "Agree sets this worker streamed out.", func(st *StatsResponse) float64 { return f64(st.Shard.ServedSets) }),
		sampled("shard_served_errors_total", "Shard requests this worker failed.", func(st *StatsResponse) float64 { return f64(st.Shard.ServedErrors) }),
	}},
}

// registerStatsMetrics declares the families of statsSections and
// installs the one sampler that renders a statsSnapshot through the
// same table per scrape.
func (s *Server) registerStatsMetrics(reg *obs.Registry) {
	for _, sec := range statsSections {
		for _, f := range sec.families {
			kind := obs.KindGaugeFamily
			if strings.HasSuffix(f.name, "_total") {
				kind = obs.KindCounterFamily
			}
			reg.DeclareSampled(metricPrefix+"_"+f.name, f.help, kind)
		}
	}
	reg.Sampler(func(emit obs.EmitFunc) {
		st := s.statsSnapshot()
		for _, sec := range statsSections {
			if sec.present != nil && !sec.present(&st) {
				continue
			}
			for _, f := range sec.families {
				name := metricPrefix + "_" + f.name
				if f.byPhase == nil {
					emit(name, nil, f.value(&st))
					continue
				}
				for phase, ms := range f.byPhase(&st) {
					emit(name, []obs.Label{{Name: "phase", Value: phase}}, ms/1000)
				}
			}
		}
	})
}
