//! Metric names, units and the layer map, plus the small statistics the
//! benchmark reports with.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_ms", "ms"),
    ("host_peak_rss_mb", "MB"),
    ("served_frac", "frac"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("slo_attainment", "frac"),
    ("max_rate_rps_sim", "1/s"),
];

/// One per-layer metric: its unit, the end-to-end metric it should move,
/// the workloads where its layer does that work, and the workloads where a
/// change to the layer must move nothing.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
    pub unchanged: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
    unchanged: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        on,
        unchanged,
    }
}

/// Per-layer metrics, grouped by layer. A workload that does not exercise
/// a layer reports 0 for its metrics.
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    // Host throughput of the whole stack. It is not an end-to-end metric
    // because its run-to-run drift on a shared host exceeds any bound the
    // benchmark may set (see README.md).
    lm("host_samples_per_s", "1/s", "(host throughput)", "all", ""),
    // graph
    lm("graph.gen_s", "s", "setup_s", "all", ""),
    // core.session and serve.shard set-up
    lm("session.upload_s", "s", "setup_s", "serve", ""),
    lm("shard.build_s", "s", "setup_s", "shard", ""),
    // gpu-sim
    lm("gpu.launches", "count", "host_samples_per_s,sim_ms", "deepwalk", "ladies"),
    lm("gpu.host_us_per_launch", "us", "host_samples_per_s,sim_ms", "deepwalk", "ladies"),
    lm("gpu.host_ns_per_mem_request", "ns", "host_samples_per_s", "ladies", ""),
    lm("gpu.gld_transactions", "count", "sim_ms", "all", ""),
    lm("gpu.gst_transactions", "count", "sim_ms", "all", ""),
    lm("gpu.divergent_branches", "count", "sim_ms", "all", ""),
    lm("gpu.sm_busy_frac", "frac", "sim_ms", "all", ""),
    lm("gpu.htod_bytes", "B", "sim_ms", "deepwalk", ""),
    lm("gpu.dtoh_bytes", "B", "sim_ms", "deepwalk", ""),
    // core.engine
    lm("engine.scheduling_sim_ms", "ms", "sim_ms", "deepwalk", "ladies"),
    lm("engine.scheduling_launches", "count", "sim_ms", "deepwalk", "ladies"),
    lm("engine.transit_sim_ms", "ms", "sim_ms", "deepwalk,serve", ""),
    lm("engine.subwarp_sim_ms", "ms", "sim_ms", "deepwalk,serve", ""),
    lm("engine.block_sim_ms", "ms", "sim_ms", "deepwalk,serve", ""),
    lm("engine.grid_sim_ms", "ms", "sim_ms", "deepwalk,serve", ""),
    lm("engine.collective_sim_ms", "ms", "sim_ms", "ladies", ""),
    lm("engine.run_host_s", "s", "host_samples_per_s", "deepwalk,ladies", ""),
    // core.tuning
    lm("tuning.hit_rate", "frac", "sim_ms,sim_p99_ms", "serve", "shard"),
    lm("tuning.sched_reuses", "count", "sim_ms,sim_p99_ms", "serve", "shard"),
    lm("tuning.sched_builds", "count", "sim_ms,sim_p99_ms", "serve", "shard"),
    lm("tuning.plan_updates", "count", "sim_ms,sim_p99_ms", "serve", "shard"),
    lm("tuning.pressure_fallbacks", "count", "sim_ms,sim_p99_ms", "serve", "shard"),
    // serve.batcher
    lm("batcher.submit_host_us_p50", "us", "host_samples_per_s", "serve", ""),
    lm("batcher.drain_host_ms_p50", "ms", "host_samples_per_s", "serve", ""),
    lm("batcher.mean_batch_size", "count", "sim_ms,max_rate_rps_sim", "serve", ""),
    lm("batcher.class_launches_per_batch", "count", "sim_ms,max_rate_rps_sim", "serve", ""),
    lm("batcher.queued_sim_p99_ms", "ms", "sim_p99_ms,slo_attainment", "serve", ""),
    lm("batcher.service_sim_p50_ms", "ms", "sim_p99_ms,slo_attainment", "serve", ""),
    lm("batcher.queue_depth_p99", "count", "sim_p99_ms,slo_attainment", "serve", ""),
    lm("batcher.queue_rejected", "count", "served_frac,slo_attainment", "serve(over)", ""),
    lm("batcher.expired_shed", "count", "served_frac,slo_attainment", "serve(over)", ""),
    lm("batcher.deadline_missed", "count", "served_frac,slo_attainment", "serve(over)", ""),
    lm("loadgen.low.sim_p50_ms", "ms", "sim_p50_ms", "serve", ""),
    lm("loadgen.low.sim_p99_ms", "ms", "sim_p99_ms", "serve", ""),
    lm("loadgen.low.slo_attainment", "frac", "max_rate_rps_sim", "serve", ""),
    lm("loadgen.nominal.sim_p50_ms", "ms", "sim_p50_ms", "serve", ""),
    lm("loadgen.nominal.sim_p99_ms", "ms", "sim_p99_ms", "serve", ""),
    lm("loadgen.nominal.slo_attainment", "frac", "slo_attainment", "serve", ""),
    lm("loadgen.over.sim_p50_ms", "ms", "sim_p50_ms", "serve", ""),
    lm("loadgen.over.sim_p99_ms", "ms", "sim_p99_ms", "serve", ""),
    lm("loadgen.over.slo_attainment", "frac", "max_rate_rps_sim", "serve", ""),
    lm("loadgen.late_p99_ms", "ms", "sim_p99_ms", "serve", ""),
    // serve.shard and core.sharded
    lm("shard.dispatch_host_ms_p50", "ms", "host_samples_per_s", "shard", ""),
    lm("shard.handoffs", "count", "sim_ms,sim_p99_ms", "shard", ""),
    lm("shard.handoff_bytes", "B", "sim_ms,sim_p99_ms", "shard", ""),
    lm("shard.super_steps", "count", "sim_ms,sim_p99_ms", "shard", ""),
    lm("shard.sync_sim_ms", "ms", "sim_ms", "shard", ""),
    lm("shard.edge_cut_fraction", "frac", "(input property)", "shard", ""),
    // the traced run itself
    lm("trace.overhead_frac", "frac", "(host cost of tracing)", "all", ""),
];

/// Named metric values a pass or a run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn put(&mut self, name: &'static str, value: f64) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        self.0.insert(name, value + 0.0);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` with `q` in `[0, 1]` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, folded over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Hash of a sample store's final samples and application edges.
pub fn store_hash(store: &nextdoor_core::SampleStore) -> u64 {
    let mut h = Fnv::default();
    for (i, s) in store.final_samples().into_iter().enumerate() {
        h.add(s.len() as u64);
        for v in s {
            h.add(v as u64);
        }
        for &(a, b) in store.edges_of(i) {
            h.add(((a as u64) << 32) | b as u64);
        }
    }
    h.0
}

/// Whether two stores hold the same samples and application edges.
pub fn same_store(a: &nextdoor_core::SampleStore, b: &nextdoor_core::SampleStore) -> bool {
    a.num_samples() == b.num_samples()
        && a.final_samples() == b.final_samples()
        && (0..a.num_samples()).all(|i| a.edges_of(i) == b.edges_of(i))
}
