//! `shard`: a closed loop of training workers against a `ShardedPool`.
//!
//! Each of [`traffic::SHARD_WORKERS`] workers keeps one DeepWalk request
//! (fresh random roots, fresh seed) outstanding. Every round the pool
//! dispatches the workers' requests as one batch, one per batch slot; a
//! worker sends its next request when its reply arrives, so a request's
//! latency is its dispatch's span on the fleet clock.

use crate::layers::{put_counters, put_host_rates, PhaseTally};
use crate::report::{median, quantile, same_store, store_hash, Fnv, Values};
use crate::trace::Tracer;
use crate::traffic::{self, gpu_spec, splitmix64};
use crate::{Pass, Workload};
use nextdoor_core::{initial_samples_random, run_nextdoor, SampleStore, SessionQuery};
use nextdoor_gpu::{Counters, Gpu};
use nextdoor_graph::Csr;
use nextdoor_serve::{ShardPoolConfig, ShardedPool};

fn gpu(pool: &ShardedPool, s: usize) -> &Gpu {
    pool.sampler().shard_gpu(s)
}

fn app() -> Box<dyn nextdoor_core::SamplingApp + Send> {
    Box::new(nextdoor_apps::DeepWalk::new(traffic::SHARD_WALK_LEN))
}

pub struct Shard {
    seed: u64,
}

impl Shard {
    pub fn new(seed: u64) -> Self {
        Shard { seed }
    }
}

pub struct State {
    graph: Csr,
    pool: ShardedPool,
    queries: Vec<SessionQuery>,
    gen_s: f64,
    build_s: f64,
}

pub struct Output {
    /// `(query index, store)` of every completed request.
    served: Vec<(usize, SampleStore)>,
    sent: u64,
    report_requests: u64,
    report_batches: u64,
    rounds: u64,
    dispatch_ms_sum: f64,
    fleet_ms: f64,
    phase_ms: f64,
    device_ms: f64,
}

impl Workload for Shard {
    type State = State;
    type Output = Output;

    fn setup(&self, tr: &mut Tracer) -> Result<State, String> {
        let (graph, gen_s) = traffic::generate(tr, traffic::WALK_GRAPH);
        let mut rng = self.seed ^ 0x5AAD;
        let queries = (0..traffic::SHARD_REQUESTS)
            .map(|i| SessionQuery {
                init: initial_samples_random(
                    &graph,
                    traffic::SHARD_SAMPLES,
                    1,
                    self.seed ^ (0x3000 + i as u64),
                )
                .expect("the walk graph is non-empty"),
                seed: splitmix64(&mut rng),
            })
            .collect();
        let cfg = ShardPoolConfig {
            num_shards: traffic::SHARD_COUNT,
            ..ShardPoolConfig::default()
        };
        let (pool, build_s) = tr.call("serve.shard", "ShardedPool::new", None, || {
            ShardedPool::new(gpu_spec(), graph.clone(), app(), cfg)
        });
        let pool = pool.map_err(|e| format!("ShardedPool::new failed: {e}"))?;
        Ok(State {
            graph,
            pool,
            queries,
            gen_s,
            build_s,
        })
    }

    fn measure(&self, st: &mut State, tr: &mut Tracer) -> Result<Pass<Output>, String> {
        let n = st.pool.num_shards();
        let pool = &mut st.pool;
        let c0: Vec<Counters> = (0..n).map(|s| *gpu(pool, s).counters()).collect();
        let dev0: Vec<f64> = (0..n).map(|s| gpu(pool, s).elapsed_ms()).collect();
        let mut phases: Vec<PhaseTally> = (0..n).map(|s| PhaseTally::new(gpu(pool, s))).collect();
        let fleet0 = pool.fleet_ms();
        let mut latencies = Vec::new();
        let mut dispatch_s = Vec::new();
        let mut served = Vec::new();
        let mut digest = Fnv::default();
        let (mut failed, mut attained, mut rounds, mut dispatch_ms_sum) = (0u64, 0u64, 0u64, 0.0);
        for (round, batch) in st.queries.chunks(traffic::SHARD_WORKERS).enumerate() {
            let (res, secs) = tr.call(
                "serve.shard",
                "ShardedPool::dispatch",
                Some(round as u64),
                || pool.dispatch(batch),
            );
            dispatch_s.push(secs);
            rounds += 1;
            let d = match res {
                Ok(d) => d,
                Err(_) => {
                    failed += batch.len() as u64;
                    continue;
                }
            };
            let latency = d.end_ms - d.start_ms;
            dispatch_ms_sum += latency;
            for (s, tally) in phases.iter_mut().enumerate() {
                tally.harvest(gpu(pool, s))?;
            }
            for (k, r) in d.results.into_iter().enumerate() {
                let qi = round * traffic::SHARD_WORKERS + k;
                digest.add(qi as u64);
                match r {
                    Ok(store) => {
                        latencies.push(latency);
                        if latency <= traffic::SHARD_SLO_MS {
                            attained += 1;
                        }
                        digest.add(store_hash(&store));
                        served.push((qi, store));
                    }
                    Err(_) => failed += 1,
                }
            }
        }
        let (report, _) = tr.call("serve.shard", "ShardedPool::report", None, || pool.report());
        let mut counters = Counters::default();
        let mut busiest_ms = 0.0f64;
        let mut device_ms = 0.0;
        for s in 0..n {
            let (c, _) = tr.call("gpu-sim", "Gpu::counters", None, || {
                *gpu(pool, s).counters()
            });
            counters.merge(&c.diff(&c0[s]));
            let (ms, _) = tr.call("gpu-sim", "Gpu::elapsed_ms", None, || {
                gpu(pool, s).elapsed_ms()
            });
            busiest_ms = busiest_ms.max(ms - dev0[s]);
            device_ms += ms - dev0[s];
        }
        let mut all_phases = PhaseTally::default();
        for tally in &phases {
            all_phases.merge(tally);
        }
        if all_phases.launches() != counters.launches {
            return Err(format!(
                "profile covered {} of {} launches",
                all_phases.launches(),
                counters.launches
            ));
        }
        let sent = st.queries.len() as u64;
        let fleet_ms = report.fleet_ms - fleet0;
        digest.add(fleet_ms.to_bits());
        let spec = gpu_spec();

        let mut sim = Values::default();
        sim.put("sim_ms", fleet_ms);
        sim.put("served_frac", served.len() as f64 / sent as f64);
        sim.put("sim_p50_ms", quantile(&latencies, 0.5));
        sim.put("sim_p99_ms", quantile(&latencies, 0.99));
        sim.put("slo_attainment", attained as f64 / sent as f64);
        // The closed loop's throughput: the rate its workers sustain.
        sim.put("max_rate_rps_sim", served.len() as f64 / (fleet_ms / 1e3));
        put_counters(&mut sim, &counters);
        all_phases.put(&mut sim, &spec);
        sim.put("shard.handoffs", report.handoffs as f64);
        sim.put("shard.handoff_bytes", report.handoff_bytes as f64);
        sim.put("shard.super_steps", report.super_steps as f64);
        sim.put("shard.sync_sim_ms", fleet_ms - busiest_ms);
        sim.put(
            "shard.edge_cut_fraction",
            pool.partition_stats().edge_cut_fraction,
        );

        let host_s: f64 = dispatch_s.iter().sum();
        let mut host = Values::default();
        host.put("graph.gen_s", st.gen_s);
        host.put("shard.build_s", st.build_s);
        host.put("shard.dispatch_host_ms_p50", median(&dispatch_s) * 1e3);
        put_host_rates(&mut host, host_s, &counters);
        let notes = vec![format!(
            "closed loop: {} workers, {sent} requests in {rounds} rounds, {} completed, \
             p50 {:.4} p99 {:.4} sim-ms ({} latencies), {} hand-offs",
            traffic::SHARD_WORKERS,
            served.len(),
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.99),
            latencies.len(),
            report.handoffs,
        )];
        Ok(Pass {
            host_s,
            samples: served.len() as u64 * traffic::SHARD_SAMPLES as u64,
            attempted: sent,
            failed,
            sim,
            host,
            digest: digest.0,
            notes,
            output: Output {
                served,
                sent,
                report_requests: report.requests,
                report_batches: report.batches,
                rounds,
                dispatch_ms_sum,
                fleet_ms,
                phase_ms: all_phases.total_ms(&spec),
                device_ms,
            },
        })
    }

    fn check(&self, st: &State, out: &Output, tr: &mut Tracer) -> Result<(), String> {
        if out.report_requests != out.sent || out.report_batches != out.rounds {
            return Err(format!(
                "fleet report counts {} requests in {} batches; the loop sent {} in {}",
                out.report_requests, out.report_batches, out.sent, out.rounds
            ));
        }
        if (out.dispatch_ms_sum - out.fleet_ms).abs() > 1e-9 * out.fleet_ms.max(1.0) {
            return Err(format!(
                "dispatch spans sum to {} ms, not the fleet clock's {}",
                out.dispatch_ms_sum, out.fleet_ms
            ));
        }
        if (out.phase_ms - out.device_ms).abs() > 1e-9 * out.device_ms.max(1.0) {
            return Err(format!(
                "phase times sum to {} ms, not the shards' device time {}",
                out.phase_ms, out.device_ms
            ));
        }
        let mut gpu = Gpu::new(gpu_spec());
        let app = app();
        for (qi, store) in &out.served {
            let q = &st.queries[*qi];
            let (res, _) = tr.call("core.engine", "run_nextdoor", Some(*qi as u64), || {
                run_nextdoor(&mut gpu, &st.graph, app.as_ref(), &q.init, q.seed)
            });
            let res = res.map_err(|e| format!("standalone run_nextdoor failed: {e}"))?;
            if !same_store(&res.store, store) {
                return Err(format!(
                    "sharded request {qi} differs from its standalone run"
                ));
            }
        }
        Ok(())
    }

    fn describe(&self, st: &State) -> Vec<(&'static str, String)> {
        let p = st.pool.partition_stats();
        vec![
            (
                "graph",
                traffic::describe_graph(traffic::WALK_GRAPH, &st.graph),
            ),
            (
                "traffic",
                format!(
                    "DeepWalk-{} x {} samples per request, {} workers, {} shards, SLO {} sim-ms",
                    traffic::SHARD_WALK_LEN,
                    traffic::SHARD_SAMPLES,
                    traffic::SHARD_WORKERS,
                    traffic::SHARD_COUNT,
                    traffic::SHARD_SLO_MS
                ),
            ),
            (
                "edge_cut",
                format!("{:.4} (balance {:.3})", p.edge_cut_fraction, p.balance),
            ),
        ]
    }
}
