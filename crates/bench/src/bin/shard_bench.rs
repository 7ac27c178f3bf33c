//! Shard-scaling benchmark: what partitioning the graph across devices
//! buys (and costs) the serving tier.
//!
//! Serves the same request stream through a [`Batcher`] over a
//! [`ShardedPool`] at 1, 2 and 4 shards, one wave of requests per drain,
//! then re-runs the 4-shard configuration with one shard killed
//! mid-stream, and records per-configuration throughput, hand-off traffic
//! and partition quality in the `"shard"` section of `BENCH_serve.json`.
//!
//! Everything runs on the simulated fleet clock: per super-step the clock
//! pays the slowest shard plus the exchange phase (hand-off bytes over the
//! inter-shard link, plus a barrier), so the scaling curve reflects the
//! paper's sub-warp load balance *and* the communication the partition's
//! edge cut induces. Samples are asserted bit-identical across shard
//! counts before any number is written.

use nextdoor_bench::{splice_bench_section, BenchConfig};
use nextdoor_core::api::SamplingApp;
use nextdoor_core::session::SessionQuery;
use nextdoor_gpu::FaultPlan;
use nextdoor_graph::{Csr, Dataset};
use nextdoor_serve::{Batcher, Request, ServeConfig, ServeError, ShardPoolConfig, ShardedPool};
use std::collections::HashMap;
use std::path::Path;

fn app() -> Box<dyn SamplingApp + Send> {
    Box::new(nextdoor_apps::KHop::new(vec![3, 2]))
}

struct LegResult {
    completed: usize,
    shed: usize,
    fleet_ms: f64,
    handoffs: u64,
    handoff_bytes: u64,
    super_steps: u64,
    walkers_lost: u64,
    edge_cut_fraction: f64,
    samples: HashMap<u64, Vec<Vec<u32>>>,
}

/// Serves `queries` through a batcher over a fresh pool of `shards`
/// shards, one `wave` per drain (so each wave is one fused dispatch),
/// optionally killing shard 1 two launches into the second wave.
fn serve_stream(
    cfg: &BenchConfig,
    graph: &Csr,
    queries: &[SessionQuery],
    shards: usize,
    wave: usize,
    lose_shard_mid_stream: bool,
) -> (LegResult, ShardedPool) {
    let pool = ShardedPool::new(
        cfg.gpu.clone(),
        graph.clone(),
        app(),
        ShardPoolConfig {
            num_shards: shards,
            placement_seed: cfg.seed,
            ..ShardPoolConfig::default()
        },
    )
    .expect("bench graph shards cleanly");
    let serve_cfg = ServeConfig {
        max_batch: wave,
        max_queue: wave,
        ..ServeConfig::default()
    };
    let mut batcher = Batcher::<ShardedPool>::new(pool, serve_cfg).expect("valid serve config");
    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut samples = HashMap::new();
    for (w, chunk) in queries.chunks(wave).enumerate() {
        if w == 1 && lose_shard_mid_stream {
            batcher
                .pool_mut()
                .schedule_faults(1, FaultPlan::new().lose_device_at_launch(2));
        }
        let seeds: HashMap<_, _> = chunk
            .iter()
            .map(|q| {
                let id = batcher
                    .submit(Request::new(q.init.clone(), q.seed))
                    .expect("valid request fits the queue");
                (id, q.seed)
            })
            .collect();
        for (id, outcome) in batcher.drain() {
            match outcome {
                Ok(resp) => {
                    completed += 1;
                    samples.insert(seeds[&id], resp.store.final_samples());
                }
                Err(ServeError::ShardLost { .. }) => shed += 1,
                Err(e) => panic!("unexpected serving outcome: {e}"),
            }
        }
    }
    let pool = batcher.into_pool();
    let report = pool.report();
    let leg = LegResult {
        completed,
        shed,
        fleet_ms: report.fleet_ms,
        handoffs: report.handoffs,
        handoff_bytes: report.handoff_bytes,
        super_steps: report.super_steps,
        walkers_lost: report.walkers_lost,
        edge_cut_fraction: pool.partition_stats().edge_cut_fraction,
        samples,
    };
    (leg, pool)
}

fn leg_json(name: &str, leg: &LegResult, shards: usize) -> String {
    let throughput = leg.completed as f64 / (leg.fleet_ms / 1e3).max(1e-12);
    format!(
        "    \"{name}\": {{\n      \"shards\": {shards},\n      \"completed\": {},\n      \
         \"shed\": {},\n      \"fleet_ms\": {:.4},\n      \
         \"throughput_rps_sim\": {:.1},\n      \"handoffs\": {},\n      \
         \"handoff_bytes\": {},\n      \"super_steps\": {},\n      \
         \"walkers_lost\": {},\n      \"edge_cut_fraction\": {:.4}\n    }}",
        leg.completed,
        leg.shed,
        leg.fleet_ms,
        throughput,
        leg.handoffs,
        leg.handoff_bytes,
        leg.super_steps,
        leg.walkers_lost,
        leg.edge_cut_fraction,
    )
}

fn main() {
    let cfg = BenchConfig::from_args();
    let g = cfg.graph(Dataset::Ppi);
    let requests = 48usize;
    let wave = 12usize;
    let samples_per_request = (cfg.samples / 32).clamp(8, 32);
    let queries: Vec<SessionQuery> = (0..requests)
        .map(|r| {
            let seed = cfg.seed + r as u64;
            SessionQuery {
                init: nextdoor_core::initial_samples_random(
                    &g,
                    samples_per_request,
                    1,
                    cfg.seed ^ (0x54AD + r as u64),
                )
                .expect("bench graph is non-empty"),
                seed,
            }
        })
        .collect();
    println!(
        "shard-serving {requests} requests x {samples_per_request} samples, khop[3,2], \
         graph |V|={} |E|={}",
        g.num_vertices(),
        g.num_edges()
    );

    let shard_counts = [1usize, 2, 4];
    let mut legs = Vec::new();
    for &shards in &shard_counts {
        let (leg, pool) = serve_stream(&cfg, &g, &queries, shards, wave, false);
        assert_eq!(leg.completed, requests, "healthy fleets complete all");
        assert_eq!(leg.shed, 0);
        let throughput = leg.completed as f64 / (leg.fleet_ms / 1e3).max(1e-12);
        println!(
            "{shards} shard(s): {throughput:8.1} req/s (sim)  \
             [{} handoffs, {} super-steps, edge cut {:.3}]",
            leg.handoffs, leg.super_steps, leg.edge_cut_fraction
        );
        if shards == 4 {
            let labels: Vec<String> = (0..shards).map(|s| format!("shard{s}")).collect();
            let devices: Vec<(&str, &nextdoor_gpu::Profile)> = labels
                .iter()
                .enumerate()
                .map(|(s, l)| (l.as_str(), pool.sampler().shard_gpu(s).profile()))
                .collect();
            cfg.export_fleet_obs("shard", &cfg.gpu, pool.trace(), pool.metrics(), &devices);
        }
        legs.push((shards, leg));
    }

    // Sharding must never change the samples: every request matches the
    // single-shard leg bit-for-bit.
    let baseline = &legs[0].1.samples;
    for (shards, leg) in &legs[1..] {
        for (seed, got) in &leg.samples {
            assert_eq!(
                got, &baseline[seed],
                "{shards}-shard samples diverged for seed {seed}"
            );
        }
    }

    // The degraded datapoint: the 4-shard fleet loses shard 1 mid-stream
    // and keeps serving the queries homed on survivors.
    let (lost, _) = serve_stream(&cfg, &g, &queries, 4, wave, true);
    assert!(
        lost.completed + lost.shed == requests,
        "no request vanishes under shard loss"
    );
    assert!(lost.shed > 0, "the dead shard's queries are shed typed");
    assert!(
        lost.walkers_lost > 0,
        "mid-walk walkers died with the shard"
    );
    let lost_tp = lost.completed as f64 / (lost.fleet_ms / 1e3).max(1e-12);
    println!(
        "4 shards, one lost: {lost_tp:8.1} req/s (sim)  \
         [{} completed, {} shed, {} walkers lost]",
        lost.completed, lost.shed, lost.walkers_lost
    );

    let mut parts: Vec<String> = legs
        .iter()
        .map(|(shards, leg)| leg_json(&format!("shards_{shards}"), leg, *shards))
        .collect();
    parts.push(leg_json("shards_4_one_lost", &lost, 4));
    let section = format!(
        "{{\n    \"requests\": {requests},\n    \"samples_per_request\": \
         {samples_per_request},\n{},\n    \"bit_identical_across_shard_counts\": true\n  }}",
        parts.join(",\n"),
    );
    let path = Path::new("BENCH_serve.json");
    splice_bench_section(path, "shard", &section).expect("can write BENCH_serve.json");
    println!("wrote shard section into {}", path.display());
}
