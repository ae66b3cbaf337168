package main

import (
	"runtime"
	"sort"
)

// perLayerMetrics assembles the traced run's metrics, named
// <module>.<metric>. A layer that is not on a workload's path reports
// 0 (store.* on the WAL-off workloads, ahe.* on the service). Three
// kinds of number appear, and the README says which is which:
//
//   - driver phases and counters read off the end-to-end repetitions;
//   - per-op costs from the layer replay (ns/us/ms per op, isolated);
//   - CPU shares: replayed CPU per op × the workload's op count over
//     the measured process CPU of the untraced repetitions. A share
//     locates cost; it is not a time and no speedup is derived from it.
func perLayerMetrics(w workload, reps []*rep, g gates, lay *layerCosts, res *result) map[string]float64 {
	var traced, untraced []*rep
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	wallOf := func(r *rep) float64 { return r.wallS }
	m := map[string]float64{}

	// --- run: one representative traced repetition (the one with the
	// median wall), so its phases sum to its wall exactly.
	pick := medianRep(traced)
	m["run.wall_s"] = pick.wallS
	for _, ph := range []string{"dial", "submit", "backlog", "drain", "collect"} {
		m["run."+ph+"_s"] = pick.phases[ph]
	}
	m["run.trace_overhead_ratio"] = median(column(traced, wallOf)) / median(column(untraced, wallOf))
	m["run.repetitions"] = float64(len(reps))
	m["run.failed_share"] = float64(res.Failed) / float64(res.Attempted)
	var lag, query []float64
	for _, r := range reps {
		lag = append(lag, r.queryLagMS...)
		query = append(query, r.queryMS...)
	}
	m["run.query_sched_lag_p50_ms"] = median(lag)

	// --- proc: CPU and allocator behind the timed windows.
	cpu := median(column(untraced, func(r *rep) float64 { return r.cpuS }))
	m["proc.cpu_s_per_mreport"] = cpu / float64(w.n) * 1e6
	m["proc.allocs_per_report"] = median(column(reps, func(r *rep) float64 { return float64(r.allocs) })) / float64(w.n)
	m["proc.gc_pause_ms"] = median(column(reps, func(r *rep) float64 { return float64(r.gcPauseNS) / 1e6 }))
	m["proc.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["proc.num_cpu"] = float64(runtime.NumCPU())
	m["proc.core_parallel_efficiency"] = median(column(reps, func(r *rep) float64 { return r.coreEff }))

	// --- replayed per-op costs.
	ns := func(name string) float64 { return lay.ns[name] }
	m["ldp.randomize_ns"] = ns("ldp.randomize")
	m["ldp.aggregate_ns"] = ns("ldp.aggregate")
	m["ldp.estimates_ms"] = ns("ldp.estimates") / 1e6
	m["ldp.clone_merge_ms"] = ns("ldp.clone_merge") / 1e6
	m["ldp.state_bytes"] = lay.values["ldp.state_bytes"]
	m["ldp.word_encode_ns"] = ns("ldp.word_encode")
	m["ldp.word_decode_ns"] = ns("ldp.word_decode")
	m["hash.count_support_ns_per_pair"] = ns("hash.count_support_pair")
	m["service.client_send_ns"] = ns("service.client_send")
	m["service.codec_marshal_ns"] = ns("service.codec_marshal")
	m["service.codec_unmarshal_ns"] = ns("service.codec_unmarshal")
	m["ecies.handshake_us"] = ns("ecies.handshake") / 1e3
	m["ecies.session_seal_ns"] = ns("ecies.session_seal")
	m["ecies.session_open_ns"] = ns("ecies.session_open")
	m["ecies.storage_seal_ns"] = ns("ecies.storage_seal")
	m["transport.frame_write_ns"] = ns("transport.frame_write")
	m["transport.frame_read_ns"] = ns("transport.frame_read")
	m["pipeline.batch_shuffle_ns"] = ns("pipeline.batch_shuffle")
	m["store.wal_append_ns"] = ns("store.wal_append")
	m["store.wal_commit_us"] = ns("store.wal_commit") / 1e3
	m["store.checkpoint_ms"] = ns("store.checkpoint") / 1e6
	m["store.wal_bytes_per_report"] = lay.values["store.wal_bytes_per_report"]
	m["secretshare.split_ns"] = ns("secretshare.split")
	m["ahe.encrypt_us"] = ns("ahe.encrypt") / 1e3
	m["ahe.add_plain_us"] = ns("ahe.add_plain") / 1e3
	m["ahe.rerandomize_us"] = ns("ahe.rerandomize") / 1e3
	m["ahe.decrypt_us"] = ns("ahe.decrypt") / 1e3
	m["ahe.serialize_us"] = ns("ahe.serialize") / 1e3
	m["ahe.deserialize_us"] = ns("ahe.deserialize") / 1e3
	m["ahe.ciphertext_bytes"] = lay.values["ahe.ciphertext_bytes"]
	m["oblivious.run_us_per_word"] = ns("oblivious.run_word") / 1e3
	m["oblivious.plain_run_us_per_word"] = ns("oblivious.plain_run_word") / 1e3
	m["oblivious.reveal_us_per_word"] = ns("oblivious.reveal_word") / 1e3
	m["protocol.estimate_ms"] = ns("protocol.estimate") / 1e6

	// --- counters of the end-to-end repetitions (medians; the gates
	// already checked the ones that must agree exactly).
	count := func(key string) float64 {
		return median(column(reps, func(r *rep) float64 { return r.counts[key] }))
	}
	m["service.backlog_p50_reports"] = median(column(reps, func(r *rep) float64 { return r.backlogAtClose }))
	m["service.query_p50_ms"] = median(query)
	m["service.query_p99_ms"] = quantile(query, 0.99)
	m["service.query_samples"] = float64(len(query))
	for _, k := range []string{"batches", "epochs_sealed", "late", "rejected", "kicked"} {
		m["service."+k] = count(k)
	}
	m["transport.wire_bytes"] = median(column(reps, func(r *rep) float64 { return float64(r.wireBytes) }))
	m["ahe.key_load_ms"] = count("key_load_ms")
	if hits, misses := count("pool_hits"), count("pool_misses"); hits+misses > 0 {
		m["ahe.pool_hit_ratio"] = hits / (hits + misses)
	} else {
		m["ahe.pool_hit_ratio"] = 0
	}
	// The Table III view comes from a PEOS.Run Meter: the workload's
	// own for peos_inproc_r2, the reference run's for peos_cluster_r3.
	meter := count
	if w.kind == kindCluster {
		meter = func(key string) float64 { return g.refCounts[key] }
	}
	m["protocol.users_cpu_s"] = meter("users_cpu_s")
	m["protocol.shuffler_max_cpu_s"] = meter("shuffler_max_cpu_s")
	m["protocol.server_cpu_s"] = meter("server_cpu_s")
	m["protocol.user_sent_bytes_per_report"] = meter("user_sent_bytes") / float64(w.n)
	m["protocol.shuffler0_sent_bytes_per_report"] = meter("shuffler0_sent_bytes") / float64(w.n)
	m["protocol.server_recv_bytes_per_report"] = meter("server_recv_bytes") / float64(w.n)
	for _, k := range []string{"attempts", "client_reconnects", "link_bytes_client_shuffler", "link_bytes_shuffler_mesh", "link_bytes_shuffler_analyzer"} {
		m["cluster."+k] = count(k)
	}
	// Two measured wall clocks on identical inputs and seeds: the
	// cluster round (repetition 0) over the in-process reference run.
	m["cluster.overhead_ratio"] = 0
	if w.kind == kindCluster && g.refWallS > 0 {
		m["cluster.overhead_ratio"] = reps[0].wallS / g.refWallS
	}

	// --- CPU shares.
	attributed := attributeCPU(w, lay, m)
	share := func(layers ...string) float64 {
		if cpu <= 0 {
			return 0
		}
		total := 0.0
		for _, l := range layers {
			total += attributed[l]
		}
		return total / cpu
	}
	m["ldp.aggregate_cpu_share"] = share("ldp.aggregate")
	m["store.cpu_share"] = share("store")
	m["ahe.cpu_share"] = share("ahe")
	all := make([]string, 0, len(attributed))
	for l := range attributed {
		all = append(all, l)
	}
	sort.Strings(all)
	m["proc.unattributed_cpu_share"] = 1 - share(all...)
	return m
}

// medianRep returns the repetition with the (upper) median wall.
func medianRep(reps []*rep) *rep {
	s := append([]*rep(nil), reps...)
	sort.Slice(s, func(i, j int) bool { return s[i].wallS < s[j].wallS })
	return s[len(s)/2]
}

// attributeCPU multiplies each replayed per-op CPU cost by how many
// times one repetition performs the op, grouped by layer, in CPU
// seconds. What the replay cannot see — channel hand-offs, scheduling,
// GC, socket syscalls, lock waits — is the remainder the caller
// reports as proc.unattributed_cpu_share.
func attributeCPU(w workload, lay *layerCosts, m map[string]float64) map[string]float64 {
	cpu := func(name string) float64 { return lay.cpu[name] / 1e9 }
	n := float64(w.n)
	out := map[string]float64{}
	if w.kind == kindService {
		out["ldp.aggregate"] = n * cpu("ldp.aggregate")
		out["client"] = n * (cpu("ldp.randomize") + cpu("service.client_send"))
		out["server_wire"] = n * (cpu("transport.frame_read") + cpu("ecies.session_open") +
			cpu("pipeline.batch_shuffle") + cpu("service.codec_unmarshal"))
		if w.durable {
			out["store"] = n*(cpu("ecies.storage_seal")+cpu("store.wal_append")) +
				m["service.batches"]*cpu("store.wal_commit") +
				m["service.epochs_sealed"]*cpu("store.checkpoint")
		}
		return out
	}
	words := float64(w.n + w.nr)
	out["ldp"] = n*(cpu("ldp.randomize")+cpu("ldp.word_encode")) + words*cpu("ldp.word_decode") + cpu("protocol.estimate")
	out["secretshare"] = n * cpu("secretshare.split")
	out["oblivious_plain"] = words * cpu("oblivious.plain_run_word")
	out["ahe"] = words*(cpu("ahe.encrypt")+cpu("ahe.decrypt")) +
		words*(cpu("oblivious.run_word")-cpu("oblivious.plain_run_word"))
	if w.kind == kindCluster {
		// Every ciphertext that crosses a link is serialized once and
		// parsed once; nearly all wire bytes are ciphertexts.
		if ct := m["ahe.ciphertext_bytes"]; ct > 0 {
			out["ahe"] += m["transport.wire_bytes"] / ct * (cpu("ahe.serialize") + cpu("ahe.deserialize"))
		}
	}
	return out
}
