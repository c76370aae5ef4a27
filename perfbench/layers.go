package main

import "strings"

// spanLayers derives the layer metrics of a traced phase's spans.
// store.<op>_ns is the median top-level wrapped Snap call of each read op
// as the server made it (0 for an op the workload does not issue; self
// time is this minus the wavelettrie op), and store.append_batch_us the
// median wrapped AppendBatchRows (a group commit). selfName
// (server.read_self_us or server.http.read_self_us, "" without reads)
// is the median read round trip minus the store time it caused;
// server.commit_wait_a_us and _b_us are the same for the append
// requests of the first and second appending connection: queueing for
// and coalescing into a group commit, plus the round trip.
func spanLayers(layers map[string]float64, logs []*clientLog, tr *tracer, selfName string) {
	a := attribute(logs, tr.store)
	top := make([]span, len(a.top))
	for j, i := range a.top {
		top[j] = tr.store[i]
	}
	opMedians(top, "store.", opCountWhere, layers)
	var appends []float64
	for _, s := range top {
		if s.key.op == opAppend {
			appends = append(appends, float64(s.dur())/1e3)
		}
	}
	layers["store.append_batch_us"] = median(appends)
	var self []float64
	var waits [][]float64
	for c, cl := range logs {
		var wait []float64
		for i, s := range cl.spans {
			d := float64(s.dur()-a.child[c][i]) / 1e3
			if s.key.op == opAppend {
				wait = append(wait, d)
			} else {
				self = append(self, d)
			}
		}
		if len(wait) > 0 {
			waits = append(waits, wait)
		}
	}
	if selfName != "" {
		layers[selfName] = median(self)
	}
	for c, name := range []string{"server.commit_wait_a_us", "server.commit_wait_b_us"} {
		layers[name] = 0
		if c < len(waits) {
			layers[name] = median(waits[c])
		}
	}
}

// registryLayers derives the layer metrics read from the process-wide
// wt_* series, as deltas over the traced phase. userBytes is the value
// and payload bytes the phase appended (the write-amplification base).
// The registry is process-wide, so on log-tail the store series count
// the follower's store too.
func registryLayers(layers map[string]float64, before, after registry, userBytes float64) {
	d := func(name string) float64 { return before.delta(after, name) }
	layers["store.filter_skip_ratio"] = ratio(d("wt_filter_negative_total"), d("wt_filter_negative_total")+d("wt_filter_pass_total"))
	layers["store.locate_memo_hit_ratio"] = ratio(d("wt_locate_memo_hits_total"), d("wt_locate_memo_hits_total")+d("wt_locate_memo_misses_total"))
	records := d("wt_wal_appended_records_total")
	layers["store.wal_bytes_per_value"] = ratio(d("wt_wal_appended_bytes_total"), records)
	layers["store.write_amp"] = ratio(d("wt_wal_appended_bytes_total")+d("wt_flush_frozen_bytes_total")+d("wt_compact_written_bytes_total"), userBytes)
	layers["store.flushes"] = d("wt_flushes_total")
	layers["store.flush_ms_total"] = 1e3 * d("wt_flush_seconds_sum")
	layers["store.flush_builder_mallocs_per_value"] = ratio(d("wt_flush_builder_mallocs_total"), records)
	layers["store.compactions"] = d("wt_compactions_total")
	layers["store.compact_ms_total"] = 1e3 * d("wt_compact_seconds_sum")
	layers["store.compact_written_bytes"] = d("wt_compact_written_bytes_total")
	layers["server.cache_hit_ratio"] = ratio(d("wt_cache_hits_total"), d("wt_cache_hits_total")+d("wt_cache_misses_total"))
	layers["server.cache_invalidations"] = d("wt_cache_invalidations_total")
	layers["server.commits"] = d("wt_batcher_commits_total")
	layers["server.values_per_commit"] = ratio(d("wt_batcher_commit_values_total"), d("wt_batcher_commits_total"))
	layers["server.batcher_stalls"] = d("wt_batcher_stalls_total")
	layers["server.repl.shipped_bytes_per_value"] = ratio(d("wt_repl_shipped_bytes_total"), d("wt_repl_shipped_records_total"))
	layers["server.repl.evictions"] = d("wt_repl_evicted_subscribers_total")
	layers["server.repl.reconnects"] = d("wt_repl_reconnects_total")
}

// zeroLayers records 0 for the per-layer metrics under the given name
// prefixes that the workload does not exercise (a layer doing no work),
// leaving measured ones alone.
func zeroLayers(layers map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if _, done := layers[d.name]; !done && strings.HasPrefix(d.name, p) {
				layers[d.name] = 0
			}
		}
	}
}
