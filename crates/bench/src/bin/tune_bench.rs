//! Autotuning benchmark: profile-guided plans and the hot-transit cache.
//!
//! Two legs, both gated:
//!
//! 1. **Suite leg** — every application of the fig6/fig8 benchmark suite
//!    answers the same short query stream twice from a persistent
//!    [`SamplerSession`]: once untouched (baseline
//!    [`TuningPlan`](nextdoor_core::tuning::TuningPlan)) and once
//!    with [`SamplerSession::enable_autotune`] +
//!    [`SamplerSession::enable_hot_cache`]. Every query's samples must be
//!    bit-identical across the two sessions — tuning moves launch geometry
//!    and cost only — and the autotuned stream's simulated cost must not
//!    exceed the default stream's, for every app and for the whole suite
//!    (the "autotuned ≥ default" throughput gate).
//! 2. **Warm cached leg** — the `serve_bench` warm-per-request workload
//!    (walk(10) on PPI, 64 requests) served by a tuned session, wall-clock
//!    timed, and compared against the committed `warm_per_request` numbers
//!    in `BENCH_serve.json`: with the tuned plan and the hot-transit
//!    cache, the warm path must come in below the committed untuned total.
//!
//! Results are spliced into the `"tune"` section of `BENCH_serve.json`
//! (same convention as `chaos_bench` / `load_bench` / `shard_bench`).

use nextdoor_bench::{
    benchmark_suite, header, jsonv, ms, row, speedup, splice_bench_section, BenchConfig,
};
use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
use nextdoor_core::session::SamplerSession;
use nextdoor_core::tuning::{CacheConfig, TunerConfig};
use nextdoor_graph::{Dataset, VertexId};
use std::path::Path;
use std::time::Instant;

struct Walk(usize);
impl SamplingApp for Walk {
    fn name(&self) -> &'static str {
        "walk"
    }
    fn steps(&self) -> Steps {
        Steps::Fixed(self.0)
    }
    fn sample_size(&self, _: usize) -> usize {
        1
    }
    fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
        let d = ctx.num_edges();
        if d == 0 {
            return None;
        }
        let i = ctx.rand_range(d);
        Some(ctx.src_edge(i))
    }
}

fn tuning_configs() -> (TunerConfig, CacheConfig) {
    (
        TunerConfig {
            warmup_queries: 1,
            ..TunerConfig::default()
        },
        CacheConfig {
            min_hits: 2,
            ..CacheConfig::default()
        },
    )
}

struct AppResult {
    name: String,
    default_ms: f64,
    tuned_ms: f64,
    cache_hit_rate: f64,
    plan_updates: u64,
}

/// Runs one app's query stream through a default and a tuned session,
/// asserting per-query bit-identity, and returns the simulated costs.
fn run_app(
    cfg: &BenchConfig,
    g: &nextdoor_graph::Csr,
    app_default: Box<dyn SamplingApp + Send>,
    app_tuned: Box<dyn SamplingApp + Send>,
    init: &[Vec<VertexId>],
    queries: u64,
) -> AppResult {
    let name = app_default.name().to_string();
    let mut sd = SamplerSession::new(cfg.gpu.clone(), g.clone(), app_default)
        .expect("bench graph fits on the device");
    let t0 = sd.sim_ms();
    let mut outs = Vec::with_capacity(queries as usize);
    for q in 0..queries {
        outs.push(sd.query(init, cfg.seed + q).expect("default query runs"));
    }
    let default_ms = sd.sim_ms() - t0;

    let mut st = SamplerSession::new(cfg.gpu.clone(), g.clone(), app_tuned)
        .expect("bench graph fits on the device");
    let (tuner, cache) = tuning_configs();
    st.enable_autotune(tuner);
    st.enable_hot_cache(cache);
    let t0 = st.sim_ms();
    for q in 0..queries {
        let r = st.query(init, cfg.seed + q).expect("tuned query runs");
        assert_eq!(
            r.store.final_samples(),
            outs[q as usize].store.final_samples(),
            "{name}: tuned query {q} diverged from the default session"
        );
    }
    let tuned_ms = st.sim_ms() - t0;
    let stats = st.cache_stats().expect("cache enabled");
    AppResult {
        name,
        default_ms,
        tuned_ms,
        cache_hit_rate: stats.hit_rate(),
        plan_updates: st.plan_updates(),
    }
}

/// The committed `warm_per_request` numbers from `BENCH_serve.json`, if the
/// file is present and carries them.
fn committed_warm() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("BENCH_serve.json").ok()?;
    let root = jsonv::parse(&text).ok()?;
    let warm = root.get("warm_per_request")?;
    let num = |k: &str| match warm.get(k) {
        Some(jsonv::Json::Num(v)) => Some(*v),
        _ => None,
    };
    Some((num("total_ms")?, num("throughput_rps")?))
}

fn main() {
    let mut cfg = BenchConfig::from_args();
    // The suite leg serves a query *stream* per app (queries × apps × two
    // sessions), so cap the per-query workload at mini-batch scale.
    cfg.samples = cfg.samples.min(4096);
    let g = cfg.graph(Dataset::Ppi);
    let queries = 5u64;
    println!(
        "autotuned vs default, {queries} queries/app, graph |V|={} |E|={}",
        g.num_vertices(),
        g.num_edges()
    );

    // Leg 1: the benchmark suite, default vs autotuned.
    header(
        "autotuned vs default (simulated cost of the query stream)",
        &["default", "autotuned", "speedup", "cache hits", "replans"],
    );
    let mut results = Vec::new();
    for ((app_d, kind), (app_t, _)) in benchmark_suite().into_iter().zip(benchmark_suite()) {
        let init = cfg.init_for(&g, kind);
        let r = run_app(&cfg, &g, app_d, app_t, &init, queries);
        row(
            &r.name,
            &[
                ms(r.default_ms),
                ms(r.tuned_ms),
                speedup(r.default_ms, r.tuned_ms),
                format!("{:.0}%", r.cache_hit_rate * 100.0),
                r.plan_updates.to_string(),
            ],
        );
        assert!(
            r.tuned_ms <= r.default_ms,
            "{}: autotuned cost {:.3}ms exceeds default {:.3}ms — the never-worse gate failed",
            r.name,
            r.tuned_ms,
            r.default_ms
        );
        results.push(r);
    }
    let default_total: f64 = results.iter().map(|r| r.default_ms).sum();
    let tuned_total: f64 = results.iter().map(|r| r.tuned_ms).sum();
    row(
        "total",
        &[
            ms(default_total),
            ms(tuned_total),
            speedup(default_total, tuned_total),
            String::new(),
            String::new(),
        ],
    );
    assert!(
        tuned_total <= default_total,
        "autotuned suite cost {tuned_total:.3}ms exceeds default {default_total:.3}ms — \
         the never-worse gate failed"
    );

    // Leg 2: the serve_bench warm workload on a tuned session, wall-clock.
    let requests = 64usize;
    let samples_per_request = (cfg.samples / requests).clamp(8, 64);
    let inits: Vec<Vec<Vec<VertexId>>> = (0..requests)
        .map(|r| {
            nextdoor_core::initial_samples_random(
                &g,
                samples_per_request,
                1,
                cfg.seed ^ (0xA000 + r as u64),
            )
            .expect("bench graph is non-empty")
        })
        .collect();
    let mut warm = SamplerSession::new(cfg.gpu.clone(), g.clone(), Box::new(Walk(10)))
        .expect("bench graph fits on the device");
    let (tuner, cache) = tuning_configs();
    warm.enable_autotune(tuner);
    warm.enable_hot_cache(cache);
    // Epoch 0 warms the tuner and the transit arena — a training loop
    // replays the same mini-batch stream every epoch, and the committed
    // warm numbers are per-epoch. Bit-identity is
    // checked against an untuned session on the way.
    let mut plain = SamplerSession::new(cfg.gpu.clone(), g.clone(), Box::new(Walk(10)))
        .expect("bench graph fits on the device");
    for (r, init) in inits.iter().enumerate() {
        let tuned = warm
            .query(init, cfg.seed + r as u64)
            .expect("warm-up query runs");
        let untuned = plain
            .query(init, cfg.seed + r as u64)
            .expect("untuned query runs");
        assert_eq!(
            tuned.store.final_samples(),
            untuned.store.final_samples(),
            "tuned warm request {r} diverged from the untuned session"
        );
    }
    // Epoch 1: the measured warm pass over the identical request stream.
    let mut lat: Vec<f64> = Vec::with_capacity(requests);
    let t0 = Instant::now();
    for (r, init) in inits.iter().enumerate() {
        let t = Instant::now();
        warm.query(init, cfg.seed + r as u64)
            .expect("warm tuned query runs");
        lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let warm_total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_rps = requests as f64 / (warm_total_ms / 1e3).max(1e-12);
    lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let p50 = lat[lat.len() / 2];
    let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
    let warm_stats = warm.cache_stats().expect("cache enabled");
    println!(
        "\nwarm cached  {warm_rps:8.1} req/s  total {warm_total_ms:.3}ms  \
         p50 {p50:.4}ms p99 {p99:.4}ms  (cache hit rate {:.0}%)",
        warm_stats.hit_rate() * 100.0
    );
    let committed = committed_warm();
    if let Some((committed_total, committed_rps)) = committed {
        println!(
            "committed warm_per_request: total {committed_total:.3}ms ({committed_rps:.1} req/s)"
        );
        assert!(
            warm_total_ms < committed_total,
            "tuned warm path ({warm_total_ms:.3}ms) must beat the committed untuned warm \
             numbers ({committed_total:.3}ms)"
        );
    } else {
        println!("BENCH_serve.json has no warm_per_request section; run serve_bench first");
    }

    let apps_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "      {{\"app\": \"{}\", \"default_ms\": {:.4}, \"tuned_ms\": {:.4}, \
                 \"cache_hit_rate\": {:.4}, \"plan_updates\": {}}}",
                r.name, r.default_ms, r.tuned_ms, r.cache_hit_rate, r.plan_updates
            )
        })
        .collect();
    let section = format!(
        "{{\n    \"queries_per_app\": {queries},\n    \"suite\": [\n{}\n    ],\n    \
         \"suite_default_ms\": {default_total:.4},\n    \"suite_tuned_ms\": {tuned_total:.4},\n    \
         \"warm_cached\": {{\n      \"requests\": {requests},\n      \
         \"samples_per_request\": {samples_per_request},\n      \
         \"total_ms\": {warm_total_ms:.3},\n      \"throughput_rps\": {warm_rps:.1},\n      \
         \"p50_ms\": {p50:.4},\n      \"p99_ms\": {p99:.4},\n      \
         \"cache_hit_rate\": {:.4}\n    }},\n    \"committed_warm_total_ms\": {},\n    \
         \"bit_identical\": true,\n    \"autotuned_not_worse\": true\n  }}",
        apps_json.join(",\n"),
        warm_stats.hit_rate(),
        committed.map_or("null".into(), |(t, _)| format!("{t:.3}")),
    );
    let path = Path::new("BENCH_serve.json");
    splice_bench_section(path, "tune", &section).expect("can write BENCH_serve.json");
    println!("wrote tune section into {}", path.display());
}
