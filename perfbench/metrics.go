package main

import (
	"time"
)

// metricDef names one reported metric, as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEndDefs are reported by untraced runs (--trace 0): what a user
// of the engine or the daemon sees.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"throughput_qps", "1/s", "higher"},
	{"success_rate", "ratio", "higher"},
	{"alloc_mb_per_query", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerDefs are reported by traced runs (--trace 1). Times are
// medians per query; counts, bytes and ratios of counts are per-query
// means (totals over the run divided by its queries).
var perLayerDefs = append([]metricDef{
	{"sqlparse.parse_us", "us", "lower"},
	{"engine.plan_us", "us", "lower"},
	{"engine.exec_ms", "ms", "lower"},
	{"engine.summarize_ms", "ms", "lower"},
	{"engine.partition_ms", "ms", "lower"},
	{"engine.combine_ms", "ms", "lower"},
	{"engine.other_ms", "ms", "lower"},
	{"engine.rows_out", "count", "lower"},
	{"engine.mem_peak_mb", "MB", "lower"},
	{"engine.buckets_split", "count", "lower"},
	{"sched.queue_wait_ms", "ms", "lower"},
	{"core.candidates", "count", "lower"},
	{"core.verified", "count", "lower"},
	{"core.verify_yield", "ratio", "higher"},
	{"core.deduped", "count", "lower"},
	{"cluster.shuffle_mb", "MB", "lower"},
	{"cluster.shuffle_records", "count", "lower"},
	{"cluster.tasks", "count", "lower"},
	{"cluster.broadcast_kb", "KB", "lower"},
	{"cluster.makespan_ms", "ms", "lower"},
	{"cluster.busy_ms", "ms", "lower"},
	{"cluster.parallel_eff", "ratio", "higher"},
	{"cluster.backpressure", "count", "lower"},
	{"types.batches", "count", "lower"},
	{"types.rows_per_batch", "count", "higher"},
	{"types.pool_reuse", "ratio", "higher"},
	{"storage.spill_mb", "MB", "lower"},
	{"storage.spill_runs", "count", "lower"},
	{"serve.wire_ms", "ms", "lower"},
	{"serve.response_kb", "KB", "lower"},
	{"serve.replay_evictions", "count", "lower"},
	{"client.attempts", "count", "lower"},
	{"runtime.mallocs_per_query", "count", "lower"},
	{"runtime.gc_cycles_per_query", "count", "lower"},
	{"runtime.gc_pause_ms_per_query", "ms", "lower"},
	{"error_rate", "ratio", "lower"},
	{"trace.attributed_frac", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}, traceSelfDefs()...)

func traceSelfDefs() []metricDef {
	defs := make([]metricDef, len(traceLayers))
	for i, l := range traceLayers {
		defs[i] = metricDef{"trace.self_ms." + l, "ms", "lower"}
	}
	return defs
}

const mib = 1 << 20

// endToEnd computes the user-visible metrics of an untraced window.
func endToEnd(ph *phase, setups []float64, rssMB float64) (map[string]float64, tailInfo) {
	lat := column(ph.samples, func(s *sample) float64 { return ms(s.latency) })
	done := float64(len(ph.samples))
	t, pct, ok := tail(lat)
	return map[string]float64{
		"setup_s":            median(setups),
		"latency_p50_ms":     median(lat),
		"latency_tail_ms":    t,
		"throughput_qps":     ratio(done, sec(ph.wall)),
		"success_rate":       ratio(done, float64(ph.attempted)),
		"alloc_mb_per_query": ratio(float64(ph.alloc)/mib, done),
		"peak_rss_mb":        rssMB,
	}, tailInfo{Percentile: pct, Samples: len(lat), RuleMet: ok}
}

// tailInfo records which percentile latency_tail_ms is.
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	RuleMet    bool    `json:"ten_beyond"`
}

// serverStats are the daemon-wide counters read once after the run.
type serverStats struct {
	queries, evictions int64
}

// perLayer computes the layer metrics: counters and phase times from
// the untraced window, self times from the traced one, plan time from
// the EXPLAIN runs.
func perLayer(plain, traced *phase, plans []float64, srv serverStats, served bool) map[string]float64 {
	ss := plain.samples
	n := float64(len(ss))
	med := func(f func(*sample) time.Duration, unit func(time.Duration) float64) float64 {
		return median(column(ss, func(s *sample) float64 { return unit(f(s)) }))
	}
	sum := func(f func(*sample) int64) float64 {
		var t int64
		for _, s := range ss {
			t += f(s)
		}
		return float64(t)
	}
	mean := func(f func(*sample) int64) float64 { return ratio(sum(f), n) }
	partitions := float64(clusterNodes * clusterCores)

	m := map[string]float64{
		"sqlparse.parse_us":   med(func(s *sample) time.Duration { return s.parse }, us),
		"engine.plan_us":      median(plans),
		"engine.exec_ms":      med(func(s *sample) time.Duration { return s.exec }, ms),
		"engine.summarize_ms": med(func(s *sample) time.Duration { return s.join.SummarizeTime }, ms),
		"engine.partition_ms": med(func(s *sample) time.Duration { return s.join.PartitionTime }, ms),
		"engine.combine_ms":   med(func(s *sample) time.Duration { return s.join.CombineTime }, ms),
		"engine.other_ms": med(func(s *sample) time.Duration {
			return s.exec - s.join.SummarizeTime - s.join.PartitionTime - s.join.CombineTime
		}, ms),
		"engine.rows_out":      mean(func(s *sample) int64 { return s.rows }),
		"engine.mem_peak_mb":   mean(func(s *sample) int64 { return s.mem.Peak }) / mib,
		"engine.buckets_split": mean(func(s *sample) int64 { return s.mem.BucketsSplit }),
		"sched.queue_wait_ms":  med(func(s *sample) time.Duration { return s.queueWait }, ms),

		"core.candidates": mean(func(s *sample) int64 { return s.join.Candidates }),
		"core.verified":   mean(func(s *sample) int64 { return s.join.Verified }),
		"core.verify_yield": ratio(sum(func(s *sample) int64 { return s.join.Verified }),
			sum(func(s *sample) int64 { return s.join.Candidates })),
		"core.deduped": mean(func(s *sample) int64 { return s.join.Deduped }),

		"cluster.shuffle_mb":      mean(func(s *sample) int64 { return s.clus.BytesShuffled }) / mib,
		"cluster.shuffle_records": mean(func(s *sample) int64 { return s.clus.RecordsShuffled }),
		"cluster.tasks":           mean(func(s *sample) int64 { return s.clus.Tasks }),
		"cluster.broadcast_kb":    mean(func(s *sample) int64 { return s.clus.BytesBroadcast }) / 1024,
		"cluster.makespan_ms":     med(func(s *sample) time.Duration { return s.clus.MaxBusy }, ms),
		"cluster.busy_ms":         med(func(s *sample) time.Duration { return s.clus.TotalBusy }, ms),
		"cluster.parallel_eff": ratio(sum(func(s *sample) int64 { return int64(s.clus.TotalBusy) }),
			sum(func(s *sample) int64 { return int64(s.clus.MaxBusy) })*partitions),
		"cluster.backpressure": mean(func(s *sample) int64 { return s.mem.Backpressure }),

		"types.batches": mean(func(s *sample) int64 { return s.join.Batches }),
		"types.rows_per_batch": ratio(sum(func(s *sample) int64 { return s.join.BatchRows }),
			sum(func(s *sample) int64 { return s.join.Batches })),
		"types.pool_reuse": ratio(sum(func(s *sample) int64 { return s.join.BatchPoolHits }),
			sum(func(s *sample) int64 { return s.join.BatchPoolGets })),

		"storage.spill_mb":   mean(func(s *sample) int64 { return s.mem.BytesSpilled }) / mib,
		"storage.spill_runs": mean(func(s *sample) int64 { return s.mem.SpillRuns }),

		"serve.response_kb":      mean(func(s *sample) int64 { return s.respBytes }) / 1024,
		"serve.replay_evictions": ratio(float64(srv.evictions), float64(srv.queries)),
		"client.attempts":        mean(func(s *sample) int64 { return int64(s.attempts) }),

		"runtime.mallocs_per_query":     ratio(float64(plain.mallocs), n),
		"runtime.gc_cycles_per_query":   ratio(float64(plain.gcs), n),
		"runtime.gc_pause_ms_per_query": ratio(ms(plain.gcPause), n),

		"error_rate": ratio(float64(plain.failed+traced.failed), float64(plain.attempted+traced.attempted)),
	}
	m["serve.wire_ms"] = 0
	if served {
		m["serve.wire_ms"] = med(func(s *sample) time.Duration { return s.latency - s.queueWait - s.exec }, ms)
	}

	// Self time per layer, median per traced query; the share of wall
	// time the named layers cover; tracing's cost on the median.
	self := make(map[string][]float64)
	var wall, unattributed time.Duration
	for _, s := range traced.samples {
		by := s.spans.selfByLayer()
		for _, l := range traceLayers {
			self[l] = append(self[l], ms(by[l]))
		}
		wall += s.spans.end - s.spans.start
		unattributed += by[layerNone]
	}
	for _, l := range traceLayers {
		m["trace.self_ms."+l] = median(self[l])
	}
	m["trace.attributed_frac"] = 1 - ratio(float64(unattributed), float64(wall))
	latencies := func(ph *phase) []float64 {
		return column(ph.samples, func(s *sample) float64 { return ms(s.latency) })
	}
	m["trace.overhead_frac"] = ratio(median(latencies(traced)), median(latencies(plain))) - 1
	return m
}

// column maps samples to one float per sample.
func column(ss []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
