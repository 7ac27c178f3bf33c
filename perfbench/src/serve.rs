//! `serve`: an open loop of Poisson arrivals on the simulated clock into a
//! `MicroBatcher` over one tuned `SamplerSession`, at three fixed offered
//! rates.
//!
//! The batcher is driven synchronously, so batch formation depends only
//! on the arrival script and the simulated clock. The loop admits every
//! request whose scheduled arrival has passed, then drains. When nothing
//! is pending it jumps an idle offset forward to the next arrival, so gaps
//! between arrivals count as idle device time. A request is timed from
//! its scheduled arrival: it is admitted with the SLO minus how late it
//! was admitted as its deadline, and its latency is that lateness plus
//! the batcher's admission-to-completion time.

use std::collections::HashMap;

use crate::layers::{put_counters, put_host_rates, PhaseTally};
use crate::report::{median, quantile, same_store, store_hash, Fnv, Values};
use crate::trace::Tracer;
use crate::traffic::{self, gpu_spec, splitmix64};
use crate::{Pass, Workload};
use nextdoor_core::tuning::{CacheConfig, TunerConfig};
use nextdoor_core::{initial_samples_random, run_nextdoor, SampleStore, SamplerSession};
use nextdoor_gpu::{Counters, Gpu};
use nextdoor_graph::{Csr, VertexId};
use nextdoor_serve::{MicroBatcher, Priority, Request, ServeConfig, ServeError};

/// Uniform in (0, 1).
fn unit(r: u64) -> f64 {
    ((r >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

fn app() -> Box<dyn nextdoor_core::SamplingApp + Send> {
    Box::new(nextdoor_apps::KHop::new(traffic::SERVE_FANOUTS.to_vec()))
}

/// One scheduled request.
struct Arrival {
    at_ms: f64,
    pool: usize,
    seed: u64,
    priority: Priority,
}

/// The item of `shares` (percentages summing to 100) that `pct`, in
/// `0..100`, falls under.
fn by_share<T: Copy>(shares: &[(T, u32)], pct: u32) -> T {
    let mut cum = 0;
    shares
        .iter()
        .find(|(_, share)| {
            cum += share;
            pct < cum
        })
        .unwrap_or(&shares[shares.len() - 1])
        .0
}

/// The root-batch pool: widths by their share, roots from the seed.
fn root_pool(g: &Csr, seed: u64) -> Vec<Vec<Vec<VertexId>>> {
    let n = traffic::SERVE_ROOT_POOL;
    (0..n)
        .map(|j| {
            let width = by_share(&traffic::SERVE_WIDTHS, (j * 100 / n) as u32);
            initial_samples_random(g, traffic::SERVE_SAMPLES, width, seed ^ (0x2000 + j as u64))
                .expect("the serve graph is non-empty")
        })
        .collect()
}

/// Poisson arrivals at `rate_rps` (per simulated second). Each epoch visits
/// every pool entry once, with fresh request seeds.
///
/// Arrival times, priorities and the visiting order are a fixed trace of
/// the traffic (from [`traffic::SERVE_TRACE_SEED`]); `seed` makes the
/// request seeds, as it makes the pool's roots.
fn script(seed: u64, rate_idx: usize, rate_rps: f64, requests: usize) -> Vec<Arrival> {
    let mut trace = traffic::SERVE_TRACE_SEED ^ (0x10AD_0000 + rate_idx as u64);
    let mut content = seed ^ (0x5EED_0000 + rate_idx as u64);
    let per_ms = rate_rps / 1e3;
    let p = traffic::SERVE_ROOT_POOL;
    let mut order: Vec<usize> = Vec::new();
    let mut t = 0.0;
    (0..requests)
        .map(|i| {
            if i % p == 0 {
                order = (0..p).collect();
                for k in (1..p).rev() {
                    order.swap(k, (splitmix64(&mut trace) % (k as u64 + 1)) as usize);
                }
            }
            t += -unit(splitmix64(&mut trace)).ln() / per_ms;
            let pick = (splitmix64(&mut trace) % 100) as u32;
            let priority = by_share(&traffic::SERVE_PRIORITIES, pick);
            Arrival {
                at_ms: t,
                pool: order[i % p],
                seed: splitmix64(&mut content),
                priority,
            }
        })
        .collect()
}

/// Per-rate metric names, in [`traffic::SERVE_RATES`] order.
const LOADGEN_KEYS: [[&str; 3]; 3] = [
    [
        "loadgen.low.sim_p50_ms",
        "loadgen.low.sim_p99_ms",
        "loadgen.low.slo_attainment",
    ],
    [
        "loadgen.nominal.sim_p50_ms",
        "loadgen.nominal.sim_p99_ms",
        "loadgen.nominal.slo_attainment",
    ],
    [
        "loadgen.over.sim_p50_ms",
        "loadgen.over.sim_p99_ms",
        "loadgen.over.slo_attainment",
    ],
];

pub struct Serve {
    seed: u64,
}

impl Serve {
    pub fn new(seed: u64) -> Self {
        Serve { seed }
    }
}

pub struct State {
    graph: Csr,
    pool: Vec<Vec<Vec<VertexId>>>,
    scripts: Vec<Vec<Arrival>>,
    batchers: Vec<MicroBatcher>,
    gen_s: f64,
    upload_s: Vec<f64>,
}

/// A completed request, kept for the bit-identity check.
pub struct Served {
    pool: usize,
    seed: u64,
    store: SampleStore,
}

/// Outcome tallies of one rate, for the conservation check.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    sent: u64,
    admitted: u64,
    queue_rejected: u64,
    late_refused: u64,
    completed: u64,
    missed_or_shed: u64,
    metrics_admitted: u64,
    metrics_queue_rejected: u64,
    metrics_completed: u64,
    metrics_expired: u64,
    metrics_missed: u64,
    sim_ms: f64,
    phase_ms: f64,
}

pub struct Output {
    served: Vec<Served>,
    tallies: Vec<Tally>,
}

/// What one rate's open loop measured.
#[derive(Default)]
struct RateRun {
    tally: Tally,
    latencies: Vec<f64>,
    late: Vec<f64>,
    queued: Vec<f64>,
    service: Vec<f64>,
    backlog_ms: f64,
    submit_s: Vec<f64>,
    drain_s: Vec<f64>,
    counters: Counters,
    phases: PhaseTally,
    failed: u64,
}

/// Runs one rate's arrival script against its batcher.
fn open_loop(
    b: &mut MicroBatcher,
    script: &[Arrival],
    pool: &[Vec<Vec<VertexId>>],
    tr: &mut Tracer,
    served: &mut Vec<Served>,
    digest: &mut Fnv,
) -> Result<RateRun, String> {
    let slo = traffic::SERVE_SLO_MS;
    let mut run = RateRun {
        phases: PhaseTally::new(b.session().gpu()),
        ..RateRun::default()
    };
    let c0 = *b.session().gpu().counters();
    let clock0 = b.session().sim_ms();
    let mut offset = 0.0;
    let mut admitted: HashMap<u64, (usize, f64)> = HashMap::new();
    let mut next = 0;
    while next < script.len() || b.pending_len() > 0 {
        let mut now = b.session().sim_ms() + offset;
        if b.pending_len() == 0 && script[next].at_ms > now {
            offset += script[next].at_ms - now;
            now = script[next].at_ms;
        }
        while next < script.len() && script[next].at_ms <= now {
            let a = &script[next];
            let late = now - a.at_ms;
            run.tally.sent += 1;
            let req = Request::new(pool[a.pool].clone(), a.seed)
                .with_priority(a.priority)
                .with_deadline(slo - late);
            let (res, secs) = tr.call(
                "serve.batcher",
                "MicroBatcher::submit",
                Some(next as u64),
                || b.submit(req),
            );
            run.submit_s.push(secs);
            match res {
                Ok(id) => {
                    run.tally.admitted += 1;
                    run.late.push(late);
                    admitted.insert(id.0, (next, late));
                }
                Err(ServeError::QueueFull { .. }) => run.tally.queue_rejected += 1,
                Err(ServeError::DeadlineExceeded { .. }) => run.tally.late_refused += 1,
                Err(_) => run.failed += 1,
            }
            next += 1;
        }
        if b.pending_len() == 0 {
            continue;
        }
        let (outs, secs) = tr.call("serve.batcher", "MicroBatcher::drain", None, || b.drain());
        run.drain_s.push(secs);
        run.phases.harvest(b.session().gpu())?;
        for (id, res) in outs {
            let Some(&(i, late)) = admitted.get(&id.0) else {
                run.failed += 1;
                continue;
            };
            digest.add(i as u64);
            match res {
                // A request's deadline is what is left of the SLO, so a
                // completed request met it.
                Ok(resp) => {
                    run.tally.completed += 1;
                    run.latencies.push(resp.latency.total_ms + late);
                    run.queued.push(resp.latency.queued_ms);
                    run.service.push(resp.latency.service_ms);
                    digest.add(store_hash(&resp.store));
                    digest.add((resp.latency.total_ms + late).to_bits());
                    served.push(Served {
                        pool: script[i].pool,
                        seed: script[i].seed,
                        store: resp.store,
                    });
                }
                Err(ServeError::DeadlineExceeded { observed_ms, .. }) => {
                    run.tally.missed_or_shed += 1;
                    run.latencies.push(observed_ms + late);
                    digest.add((observed_ms + late).to_bits());
                }
                Err(_) => run.failed += 1,
            }
        }
    }
    run.backlog_ms = b.session().sim_ms() + offset - script.last().map_or(0.0, |a| a.at_ms);
    run.counters = b.session().gpu().counters().diff(&c0);
    run.tally.sim_ms = b.session().sim_ms() - clock0;
    run.tally.phase_ms = run.phases.total_ms(b.session().gpu().spec());
    if run.phases.launches() != run.counters.launches {
        return Err(format!(
            "profile covered {} of {} launches",
            run.phases.launches(),
            run.counters.launches
        ));
    }
    Ok(run)
}

impl Workload for Serve {
    type State = State;
    type Output = Output;

    fn setup(&self, tr: &mut Tracer) -> Result<State, String> {
        let (graph, gen_s) = traffic::generate(tr, traffic::SERVE_GRAPH);
        let pool = root_pool(&graph, self.seed);
        let scripts = traffic::SERVE_RATES
            .iter()
            .enumerate()
            .map(|(r, &(_, rate, requests))| script(self.seed, r, rate, requests))
            .collect();
        let mut batchers = Vec::new();
        let mut upload_s = Vec::new();
        for _ in traffic::SERVE_RATES {
            let (session, secs) = tr.call("core.session", "SamplerSession::new", None, || {
                SamplerSession::new(gpu_spec(), graph.clone(), app())
            });
            upload_s.push(secs);
            let session = session.map_err(|e| format!("SamplerSession::new failed: {e}"))?;
            let cfg = ServeConfig {
                max_batch: traffic::SERVE_MAX_BATCH,
                max_queue: traffic::SERVE_MAX_QUEUE,
                default_deadline_ms: None,
            };
            let mut b =
                MicroBatcher::new(session, cfg).map_err(|e| format!("MicroBatcher::new: {e}"))?;
            b.enable_tuning(TunerConfig::default(), CacheConfig::default());
            batchers.push(b);
        }
        Ok(State {
            graph,
            pool,
            scripts,
            batchers,
            gen_s,
            upload_s,
        })
    }

    fn measure(&self, st: &mut State, tr: &mut Tracer) -> Result<Pass<Output>, String> {
        let mut sim = Values::default();
        let mut host = Values::default();
        let mut digest = Fnv::default();
        let mut served = Vec::new();
        let mut runs = Vec::new();
        for (r, b) in st.batchers.iter_mut().enumerate() {
            runs.push(open_loop(
                b,
                &st.scripts[r],
                &st.pool,
                tr,
                &mut served,
                &mut digest,
            )?);
        }
        let nominal = 1;
        let over = 2;
        let mut max_rate = 0.0f64;
        let mut counters = Counters::default();
        let mut phases = PhaseTally::default();
        let (mut submit_s, mut drain_s) = (Vec::new(), Vec::new());
        let (mut sent, mut completed, mut failed) = (0u64, 0u64, 0u64);
        let mut sim_ms = 0.0;
        let mut late = Vec::new();
        let mut notes = Vec::new();
        for (r, (run, b)) in runs.iter_mut().zip(st.batchers.iter()).enumerate() {
            let (name, rate, _) = traffic::SERVE_RATES[r];
            let (m, _) = tr.call("serve.batcher", "MicroBatcher::metrics", None, || {
                b.metrics().clone()
            });
            let t = &mut run.tally;
            t.metrics_admitted = m.sim.admitted;
            t.metrics_queue_rejected = m.sim.queue_rejected;
            t.metrics_completed = m.sim.completed;
            t.metrics_expired = m.sim.expired_shed;
            t.metrics_missed = m.sim.deadline_missed;
            let attain = t.completed as f64 / t.sent as f64;
            let p50 = quantile(&run.latencies, 0.5);
            let p99 = quantile(&run.latencies, 0.99);
            let sustained = attain >= traffic::SERVE_ATTAIN_TARGET
                && t.queue_rejected == 0
                && t.late_refused == 0
                && run.backlog_ms <= traffic::SERVE_SLO_MS;
            if sustained {
                max_rate = max_rate.max(rate);
            }
            notes.push(format!(
                "rate {name:<8} {rate:>8.0} req/sim-s: sent {} completed {} rejected {} late-refused {} \
                 attain {attain:.4} p50 {p50:.4} p99 {p99:.4} sim-ms ({} latencies), backlog {:.4} sim-ms{}",
                t.sent,
                t.completed,
                t.queue_rejected,
                t.late_refused,
                run.latencies.len(),
                run.backlog_ms,
                if sustained { ", sustained" } else { "" }
            ));
            let [k50, k99, kattain] = LOADGEN_KEYS[r];
            sim.put(k50, p50);
            sim.put(k99, p99);
            sim.put(kattain, attain);
            if r == nominal {
                sim.put("sim_p50_ms", p50);
                sim.put("sim_p99_ms", p99);
                sim.put("slo_attainment", attain);
                sim.put(
                    "batcher.mean_batch_size",
                    m.sim.batch_size.mean().unwrap_or(0.0),
                );
                sim.put(
                    "batcher.class_launches_per_batch",
                    m.sim.class_launches as f64 / m.sim.batches.max(1) as f64,
                );
                sim.put("batcher.queued_sim_p99_ms", quantile(&run.queued, 0.99));
                sim.put("batcher.service_sim_p50_ms", quantile(&run.service, 0.5));
                sim.put(
                    "batcher.queue_depth_p99",
                    m.sim.queue_depth.quantile(0.99).unwrap_or(0.0),
                );
                sim.put("tuning.hit_rate", m.tuning.hit_rate().unwrap_or(0.0));
                sim.put("tuning.sched_reuses", m.tuning.sched_reuses as f64);
                sim.put("tuning.sched_builds", m.tuning.sched_builds as f64);
                sim.put("tuning.plan_updates", m.tuning.plan_updates as f64);
                sim.put(
                    "tuning.pressure_fallbacks",
                    m.tuning.pressure_fallbacks as f64,
                );
            }
            if r == over {
                sim.put("batcher.queue_rejected", m.sim.queue_rejected as f64);
                sim.put("batcher.expired_shed", m.sim.expired_shed as f64);
                sim.put("batcher.deadline_missed", m.sim.deadline_missed as f64);
            }
            counters.merge(&run.counters);
            phases.merge(&run.phases);
            submit_s.extend_from_slice(&run.submit_s);
            drain_s.extend_from_slice(&run.drain_s);
            late.extend_from_slice(&run.late);
            sent += t.sent;
            completed += t.completed;
            failed += run.failed;
            sim_ms += t.sim_ms;
        }
        let spec = gpu_spec();
        sim.put("sim_ms", sim_ms);
        sim.put("served_frac", completed as f64 / sent as f64);
        sim.put("max_rate_rps_sim", max_rate);
        sim.put("loadgen.late_p99_ms", quantile(&late, 0.99));
        put_counters(&mut sim, &counters);
        phases.put(&mut sim, &spec);

        let host_s: f64 = submit_s.iter().sum::<f64>() + drain_s.iter().sum::<f64>();
        let drain_total: f64 = drain_s.iter().sum();
        host.put("graph.gen_s", st.gen_s);
        host.put("session.upload_s", median(&st.upload_s));
        host.put("batcher.submit_host_us_p50", median(&submit_s) * 1e6);
        host.put("batcher.drain_host_ms_p50", median(&drain_s) * 1e3);
        put_host_rates(&mut host, drain_total, &counters);
        Ok(Pass {
            host_s,
            samples: completed * traffic::SERVE_SAMPLES as u64,
            attempted: sent,
            failed,
            sim,
            host,
            digest: digest.0,
            notes,
            output: Output {
                served,
                tallies: runs.into_iter().map(|r| r.tally).collect(),
            },
        })
    }

    fn check(&self, st: &State, out: &Output, tr: &mut Tracer) -> Result<(), String> {
        for (r, t) in out.tallies.iter().enumerate() {
            let name = traffic::SERVE_RATES[r].0;
            if t.sent != t.admitted + t.queue_rejected + t.late_refused {
                return Err(format!(
                    "{name}: sent {} != admitted + rejected ({t:?})",
                    t.sent
                ));
            }
            if t.admitted != t.metrics_admitted || t.queue_rejected != t.metrics_queue_rejected {
                return Err(format!(
                    "{name}: admission counts disagree with the batcher ({t:?})"
                ));
            }
            if t.admitted != t.metrics_completed + t.metrics_expired + t.metrics_missed
                || t.completed != t.metrics_completed
                || t.missed_or_shed != t.metrics_expired + t.metrics_missed
            {
                return Err(format!(
                    "{name}: admitted != completed + expired_shed + deadline_missed ({t:?})"
                ));
            }
            if (t.phase_ms - t.sim_ms).abs() > 1e-9 * t.sim_ms.max(1.0) {
                return Err(format!(
                    "{name}: phase times sum to {} ms, not {}",
                    t.phase_ms, t.sim_ms
                ));
            }
        }
        let mut gpu = Gpu::new(gpu_spec());
        let app = app();
        for (k, s) in out.served.iter().enumerate() {
            let (res, _) = tr.call("core.engine", "run_nextdoor", Some(k as u64), || {
                run_nextdoor(&mut gpu, &st.graph, app.as_ref(), &st.pool[s.pool], s.seed)
            });
            let res = res.map_err(|e| format!("standalone run_nextdoor failed: {e}"))?;
            if !same_store(&res.store, &s.store) {
                return Err(format!(
                    "served request {k} differs from its standalone run"
                ));
            }
        }
        Ok(())
    }

    fn describe(&self, st: &State) -> Vec<(&'static str, String)> {
        let n = st.scripts.iter().map(Vec::len).sum::<usize>();
        let mut width_count: Vec<(usize, usize)> =
            traffic::SERVE_WIDTHS.iter().map(|&(w, _)| (w, 0)).collect();
        let mut replays = 0usize;
        for sc in &st.scripts {
            let mut seen = vec![false; st.pool.len()];
            for a in sc {
                let w = st.pool[a.pool][0].len();
                if let Some(e) = width_count.iter_mut().find(|(x, _)| *x == w) {
                    e.1 += 1;
                }
                if std::mem::replace(&mut seen[a.pool], true) {
                    replays += 1;
                }
            }
        }
        let widths = width_count
            .iter()
            .map(|(w, c)| format!("w{w} {:.3}", *c as f64 / n as f64))
            .collect::<Vec<_>>()
            .join(", ");
        vec![
            ("graph", traffic::describe_graph(traffic::SERVE_GRAPH, &st.graph)),
            (
                "traffic",
                format!(
                    "khop {:?}, {} samples/request, (rate, req/sim-s, requests) {:?}, SLO {} sim-ms",
                    traffic::SERVE_FANOUTS,
                    traffic::SERVE_SAMPLES,
                    traffic::SERVE_RATES,
                    traffic::SERVE_SLO_MS
                ),
            ),
            ("width_mix", widths),
            (
                "root_replay_share",
                format!("{:.4} (pool of {})", replays as f64 / n as f64, st.pool.len()),
            ),
        ]
    }
}
