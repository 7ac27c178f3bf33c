//! Fault-tolerant replicated serving: the [`ReplicaPool`], the
//! [`Dispatch`] backend of a [`FleetBatcher`](crate::FleetBatcher).
//!
//! One [`SamplerSession`] is one device — one watchdog kill, one
//! out-of-memory storm or one device loss away from dropping every request
//! in flight. The replicated tier owns **N sessions over the same graph**
//! (independent simulated devices, possibly carrying independent
//! [`FaultPlan`]s) and composes four recovery
//! mechanisms around them:
//!
//! * **Routing**: every micro-batch goes to the least-loaded *healthy*
//!   replica (the same deterministic rule the multi-GPU shard layer uses
//!   for failover, [`least_loaded_alive`]). Replica choice never changes
//!   the samples — engines key all randomness through
//!   [`SampleKeys`](nextdoor_core::engine::SampleKeys), not device state.
//! * **Retry with backoff**: a failed dispatch is retried on the next
//!   healthy replica, up to a budget, with exponential backoff charged to
//!   the *fleet clock* (a deterministic simulated-ms timeline), never to
//!   wall time.
//! * **Circuit breaking**: consecutive failures trip a per-replica
//!   [`CircuitBreaker`]; the replica cools down on the fleet clock, then a
//!   half-open probe either recovers it or re-trips it. Device loss kills
//!   the breaker permanently.
//! * **Hedging**: optionally, a batch whose service time exceeded a
//!   latency budget is re-dispatched to a second healthy replica; the
//!   earlier completion wins. Results are bit-identical either way, so
//!   hedging only ever improves the latency accounting.
//!
//! The pool reports its healthy replica count through
//! [`Dispatch::health`]. When healthy capacity drops below demand the
//! batcher above degrades gracefully instead of queueing without bound:
//! the fused batch cap shrinks proportionally to surviving capacity, and
//! excess pending requests are shed **lowest priority first** with a typed
//! [`ServeError::Overloaded`] rejection. Every decision — retries, hedges,
//! trips, probes, recoveries, sheds, degraded intervals — is surfaced in
//! the per-run [`FleetReport`].
//!
//! Determinism: the pool runs on one scheduler thread; each replica's
//! device is internally deterministic at any host worker-thread count, and
//! every recovery decision keys off the fleet clock (derived from device
//! sim clocks) and the request stream alone. A chaos run therefore
//! produces bit-identical samples *and* a bit-identical `FleetReport` at
//! any `NEXTDOOR_SIM_THREADS`.

use crate::batcher::{record_class_launches, Dispatch};
use crate::error::ServeError;
use crate::health::{BreakerConfig, CircuitBreaker};
use crate::metrics::{ServeMetrics, SimMetrics};
use crate::trace::{Obs, Span, SpanKind, Tracer};
use nextdoor_core::api::SamplingApp;
use nextdoor_core::multi_gpu::least_loaded_alive;
use nextdoor_core::session::{FusedResult, SamplerSession, SessionQuery};
use nextdoor_core::sharded::HANDOFF_BYTES_PER_WALKER;
use nextdoor_core::{validate_run, FaultReport, NextDoorError};
use nextdoor_gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor_graph::{Csr, VertexId};

/// Recovery knobs of a [`ReplicaPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Re-dispatch attempts after a failed one (0 = fail on first error).
    pub max_retries: usize,
    /// Simulated-ms backoff before retry `k`: `backoff_base_ms * 2^k`,
    /// charged to the fleet clock.
    pub backoff_base_ms: f64,
    /// Latency budget in simulated ms above which a completed batch is
    /// hedged onto a second healthy replica. `None` disables hedging.
    pub hedge_after_ms: Option<f64>,
    /// Per-replica circuit-breaker knobs.
    pub breaker: BreakerConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_retries: 3,
            backoff_base_ms: 0.05,
            hedge_after_ms: None,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Per-replica slice of a [`FleetReport`]. The sharded tier keeps one per
/// shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicaStats {
    /// Fused batches dispatched to this replica (probes and hedges
    /// included).
    pub dispatches: u64,
    /// Dispatches that returned a typed error.
    pub failures: u64,
    /// Hedged re-dispatches served by this replica.
    pub hedges: u64,
    /// Breaker trips (consecutive-failure and failed-probe trips).
    pub trips: u64,
    /// Half-open probe dispatches.
    pub probes: u64,
    /// Probes that succeeded and closed the breaker.
    pub recoveries: u64,
    /// Whether the replica's device was permanently lost.
    pub lost: bool,
    /// Faults this replica's device observed during *successful*
    /// dispatches and recovered from internally (step retries etc.).
    pub faults: FaultReport,
}

impl ReplicaStats {
    /// These counters with `breaker`'s trips, probes and recoveries and the
    /// unit's loss stamped in, as of report time.
    pub(crate) fn with_health(&self, breaker: &CircuitBreaker, lost: bool) -> ReplicaStats {
        ReplicaStats {
            trips: breaker.trips,
            probes: breaker.probes,
            recoveries: breaker.recoveries,
            lost,
            ..self.clone()
        }
    }
}

/// Everything a chaos run observes of the fleet's recovery behaviour, in
/// one serializable report. Deterministic: a scripted run reproduces this
/// bit-for-bit at any host worker-thread count.
///
/// The fleet-wide serving events (retries, hedges, shedding, cool-down
/// waits, hand-offs, super-steps) are read from the tier's
/// [`ServeMetrics`] registry when the report is built, so the report and
/// the metrics snapshot cannot disagree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetReport {
    /// Per-replica counters, indexed by replica id.
    pub replicas: Vec<ReplicaStats>,
    /// Fused batches the pool dispatched (first attempts only).
    pub batches: u64,
    /// Requests inside those batches.
    pub requests: u64,
    /// Serving-level re-dispatches after a failed attempt.
    pub retries: u64,
    /// Batches hedged onto a second replica.
    pub hedges: u64,
    /// Hedges that completed before the primary would have.
    pub hedge_wins: u64,
    /// Requests shed with [`ServeError::Overloaded`] under degraded
    /// capacity.
    pub shed: u64,
    /// Times the fleet clock was advanced to the earliest breaker reopen
    /// because no replica was routable.
    pub cooldown_waits: u64,
    /// Closed `[start_ms, end_ms)` fleet-clock intervals during which
    /// healthy capacity was below the full pool (an interval still open at
    /// report time is closed at the current fleet clock).
    pub degraded_intervals: Vec<(f64, f64)>,
    /// Walkers handed between shards (sharded pool only; zero for the
    /// replicated tier, whose replicas each hold the whole graph).
    pub handoffs: u64,
    /// Simulated bytes those hand-offs moved (sharded pool only).
    pub handoff_bytes: u64,
    /// Sharded super-steps executed (sharded pool only).
    pub super_steps: u64,
    /// Walkers terminated mid-run by shard loss (sharded pool only).
    pub walkers_lost: u64,
    /// Fleet clock at report time, simulated ms.
    pub fleet_ms: f64,
}

impl FleetReport {
    /// A canonical multi-line rendering of the report, suitable for golden
    /// comparisons (`f64` values print round-trip-exact).
    pub fn digest(&self) -> String {
        format!("{self:#?}\n")
    }

    /// A report over `replicas` whose fleet-wide event counts come from
    /// the metrics registry `sim`; the pool supplies only what no metric
    /// records. Degraded intervals start empty (the batcher adds them).
    pub(crate) fn from_metrics(
        sim: &SimMetrics,
        replicas: Vec<ReplicaStats>,
        batches: u64,
        requests: u64,
        walkers_lost: u64,
        fleet_ms: f64,
    ) -> FleetReport {
        FleetReport {
            replicas,
            batches,
            requests,
            retries: sim.retries,
            hedges: sim.hedges,
            hedge_wins: sim.hedge_wins,
            shed: sim.overload_shed + sim.shard_shed,
            cooldown_waits: sim.cooldown_waits,
            degraded_intervals: Vec::new(),
            handoffs: sim.handoffs,
            handoff_bytes: sim.handoffs * HANDOFF_BYTES_PER_WALKER,
            super_steps: sim.super_steps,
            walkers_lost,
            fleet_ms,
        }
    }
}

struct Replica {
    session: SamplerSession,
    breaker: CircuitBreaker,
    stats: ReplicaStats,
}

/// A successfully dispatched batch, with the pool's fleet-clock
/// bracketing of it. Also the result of every [`Dispatch::dispatch`]: a
/// single session reports replica 0, no retries and no hedge, bracketed on
/// its own clock.
pub struct PoolResponse {
    /// The fused result (per-query stores, batch stats, fault report).
    pub fused: FusedResult,
    /// Replica whose result is being returned (the hedge replica when the
    /// hedge won).
    pub replica: usize,
    /// The dispatch's sequence number in the pool's trace — the join key
    /// between request-level spans and this batch's dispatch/attempt/launch
    /// spans.
    pub batch: u64,
    /// Fleet clock when the dispatch (first attempt) began.
    pub start_ms: f64,
    /// Fleet clock when the batch completed, retries/backoff/hedging
    /// included.
    pub end_ms: f64,
    /// Re-dispatches this batch needed.
    pub retries: usize,
    /// Whether the batch was hedged onto a second replica.
    pub hedged: bool,
}

impl PoolResponse {
    /// Service span of the batch on the fleet clock.
    pub fn service_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Whether a dispatch failure may be masked by retrying elsewhere (runtime
/// faults), as opposed to a request error no replica can serve.
fn retryable(e: &NextDoorError) -> bool {
    matches!(
        e,
        NextDoorError::KernelFault { .. }
            | NextDoorError::DeviceLost { .. }
            | NextDoorError::OutOfMemory(_)
    )
}

/// N [`SamplerSession`] replicas of the same graph behind one deterministic
/// router. See the [module docs](self) for the recovery mechanisms.
pub struct ReplicaPool {
    replicas: Vec<Replica>,
    cfg: PoolConfig,
    fleet_ms: f64,
    requests: u64,
    /// The fleet's span stream and metrics registry. The
    /// [`FleetBatcher`](crate::FleetBatcher) records its request-level
    /// events here too (through [`Dispatch::obs_mut`]), so one serving
    /// stack has one totally-ordered trace.
    obs: Obs,
}

impl ReplicaPool {
    /// Builds a pool from one caller-configured device and sampling app
    /// instance per replica (the device is where per-replica
    /// [`FaultPlan`]s are installed), all over the same `graph`.
    ///
    /// # Errors
    ///
    /// [`NextDoorError::NoGpus`] for an empty pool, and any session
    /// creation error ([`NextDoorError::EmptyGraph`], upload
    /// [`NextDoorError::OutOfMemory`], a device already lost).
    pub fn new(
        devices: Vec<(Gpu, Box<dyn SamplingApp + Send>)>,
        graph: &Csr,
        cfg: PoolConfig,
    ) -> Result<Self, NextDoorError> {
        if devices.is_empty() {
            return Err(NextDoorError::NoGpus);
        }
        let mut replicas = Vec::with_capacity(devices.len());
        for (gpu, app) in devices {
            replicas.push(Replica {
                session: SamplerSession::with_gpu(gpu, graph.clone(), app)?,
                breaker: CircuitBreaker::new(cfg.breaker),
                stats: ReplicaStats::default(),
            });
        }
        Ok(ReplicaPool {
            replicas,
            cfg,
            fleet_ms: 0.0,
            requests: 0,
            obs: Obs::default(),
        })
    }

    /// Convenience constructor: `n` fault-free replicas of identical
    /// `spec`, with `make_app` invoked once per replica.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReplicaPool::new`].
    pub fn replicate(
        spec: &GpuSpec,
        n: usize,
        graph: &Csr,
        make_app: impl Fn() -> Box<dyn SamplingApp + Send>,
        cfg: PoolConfig,
    ) -> Result<Self, NextDoorError> {
        let devices = (0..n)
            .map(|_| (Gpu::new(spec.clone()), make_app()))
            .collect();
        Self::new(devices, graph, cfg)
    }

    /// Replicas in the pool (healthy or not).
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas currently routable: breaker closed or half-open-eligible,
    /// device not lost.
    pub fn healthy_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.breaker.available(self.fleet_ms))
            .count()
    }

    /// The deterministic fleet clock, in simulated milliseconds: advanced
    /// by dispatched batches' device time, retry backoffs and cool-down
    /// waits — never by wall time.
    pub fn fleet_ms(&self) -> f64 {
        self.fleet_ms
    }

    /// The shared resident graph (replica 0's copy).
    pub fn graph(&self) -> &Csr {
        self.replicas[0].session.graph()
    }

    /// The sampling application served (replica 0's instance).
    pub fn app(&self) -> &dyn SamplingApp {
        self.replicas[0].session.app()
    }

    /// Replica `i`'s session (e.g. to inspect its device counters).
    pub fn session(&self, i: usize) -> &SamplerSession {
        &self.replicas[i].session
    }

    /// Schedules faults on replica `i` relative to its current traffic
    /// (see [`SamplerSession::schedule_faults`]) — the chaos-harness hook
    /// for killing or degrading a specific replica mid-stream.
    pub fn schedule_faults(&mut self, i: usize, plan: FaultPlan) {
        self.replicas[i].session.schedule_faults(plan);
    }

    /// Per-replica breaker state, for tests and monitoring.
    pub fn breaker(&self, i: usize) -> &CircuitBreaker {
        &self.replicas[i].breaker
    }

    /// The fleet's request-lifecycle trace (shared with the
    /// [`FleetBatcher`](crate::FleetBatcher) above, which records
    /// admission/queue/shedding spans into the same recorder).
    pub fn trace(&self) -> &Tracer {
        &self.obs.trace
    }

    /// The fleet's deterministic metrics registry (see
    /// [`ServeMetrics`]).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.obs.metrics
    }

    /// The pool-level [`FleetReport`], its fleet-wide counters read from
    /// the metrics registry (the batcher above adds degraded intervals).
    pub fn report_core(&self) -> FleetReport {
        let replicas = self
            .replicas
            .iter()
            .map(|r| r.stats.with_health(&r.breaker, r.breaker.is_dead()))
            .collect();
        let sim = &self.obs.metrics.sim;
        FleetReport::from_metrics(sim, replicas, sim.batches, self.requests, 0, self.fleet_ms)
    }

    /// The least-loaded routable replica (load = accumulated device sim
    /// time), excluding `exclude` — the shared failover rule of
    /// [`least_loaded_alive`].
    fn pick(&self, exclude: Option<usize>) -> Option<usize> {
        let alive: Vec<bool> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| Some(i) != exclude && r.breaker.available(self.fleet_ms))
            .collect();
        let load: Vec<f64> = self.replicas.iter().map(|r| r.session.sim_ms()).collect();
        least_loaded_alive(&alive, &load)
    }

    /// Earliest fleet-clock instant at which some tripped (but live)
    /// breaker reopens.
    fn earliest_reopen(&self) -> Option<f64> {
        self.replicas
            .iter()
            .filter_map(|r| r.breaker.reopen_at())
            .min_by(f64::total_cmp)
    }

    /// Runs `queries` on replica `dev`, charging its device time to the
    /// fleet clock and updating its breaker and stats. Records one
    /// [`SpanKind::Attempt`] span per call and, on success, one
    /// [`SpanKind::ClassLaunch`] span per width class, mapped from the
    /// replica's device clock onto the fleet clock.
    fn attempt(
        &mut self,
        dev: usize,
        queries: &[SessionQuery],
        batch_seq: u64,
    ) -> Result<FusedResult, NextDoorError> {
        let fleet_t0 = self.fleet_ms;
        let r = &mut self.replicas[dev];
        r.breaker.begin_dispatch(self.fleet_ms);
        r.stats.dispatches += 1;
        let t0 = r.session.sim_ms();
        let launch0 = r.session.gpu().launches_issued();
        let res = r.session.query_fused(queries);
        let launch1 = r.session.gpu().launches_issued();
        self.fleet_ms += r.session.sim_ms() - t0;
        self.obs.trace.push(
            Span::new(SpanKind::Attempt, fleet_t0, self.fleet_ms)
                .batch(batch_seq)
                .replica(dev)
                .batch_size(queries.len())
                .launches((launch0, launch1))
                .ok(res.is_ok()),
        );
        match res {
            Ok(fused) => {
                // This attempt ran the device from `t0`; its class launch
                // intervals shift onto the fleet timeline by the attempt's
                // fleet start.
                let spec = r.session.gpu().spec();
                record_class_launches(
                    &mut self.obs,
                    batch_seq,
                    Some(dev),
                    &fused.class_marks,
                    spec,
                    fleet_t0 - t0,
                );
                r.breaker.record_success();
                r.stats.faults.merge(&fused.report);
                Ok(fused)
            }
            Err(e) => {
                r.stats.failures += 1;
                if matches!(e, NextDoorError::DeviceLost { .. }) || r.session.device_lost() {
                    r.breaker.kill();
                } else {
                    r.breaker.record_failure(self.fleet_ms);
                }
                Err(e)
            }
        }
    }

    /// Dispatches one fused batch to the fleet: routes to the least-loaded
    /// healthy replica, retries with fleet-clock backoff on runtime
    /// failures, waits out breaker cool-downs when nobody is routable, and
    /// optionally hedges slow batches onto a second replica.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoHealthyReplica`] once every replica is permanently
    /// lost; [`ServeError::Sampling`] for request errors (immediately) and
    /// for runtime errors that survived the retry budget.
    pub fn dispatch(&mut self, queries: &[SessionQuery]) -> Result<PoolResponse, ServeError> {
        self.requests += queries.len() as u64;
        let batch_seq = self.obs.trace.next_batch_id();
        self.obs.metrics.sim.batches += 1;
        self.obs
            .metrics
            .sim
            .batch_size
            .observe(queries.len() as f64);
        let start_ms = self.fleet_ms;
        let mut retries = 0usize;
        let err = loop {
            let Some(dev) = self.pick(None) else {
                // Nobody is routable right now. If some breaker merely
                // cools down, advance the fleet clock to its reopen
                // instant (a deterministic "wait"); otherwise the fleet
                // is gone.
                let Some(t) = self.earliest_reopen() else {
                    break ServeError::NoHealthyReplica {
                        replicas: self.replicas.len(),
                    };
                };
                let wait_from = self.fleet_ms;
                self.fleet_ms = self.fleet_ms.max(t);
                self.obs.metrics.sim.cooldown_waits += 1;
                self.obs.trace.push(
                    Span::new(SpanKind::CooldownWait, wait_from, self.fleet_ms).batch(batch_seq),
                );
                continue;
            };
            match self.attempt(dev, queries, batch_seq) {
                Ok(primary) => {
                    let (fused, replica, end_ms, hedged) =
                        self.maybe_hedge(queries, primary, dev, start_ms, batch_seq);
                    self.obs.trace.push(
                        Span::new(SpanKind::Dispatch, start_ms, end_ms)
                            .batch(batch_seq)
                            .replica(replica)
                            .batch_size(fused.per_query.len())
                            .ok(true),
                    );
                    return Ok(PoolResponse {
                        fused,
                        replica,
                        start_ms,
                        end_ms,
                        retries,
                        hedged,
                        batch: batch_seq,
                    });
                }
                Err(e) if !retryable(&e) || retries >= self.cfg.max_retries => {
                    break ServeError::Sampling(e);
                }
                Err(_) => {
                    // Exponential backoff on the fleet clock before the
                    // next attempt (which the router may send elsewhere).
                    let backoff_from = self.fleet_ms;
                    self.fleet_ms += self.cfg.backoff_base_ms * (1u64 << retries) as f64;
                    retries += 1;
                    self.obs.metrics.sim.retries += 1;
                    self.obs.trace.push(
                        Span::new(SpanKind::Backoff, backoff_from, self.fleet_ms).batch(batch_seq),
                    );
                }
            }
        };
        self.obs.metrics.sim.failed += queries.len() as u64;
        self.obs.trace.push(
            Span::new(SpanKind::Dispatch, start_ms, self.fleet_ms)
                .batch(batch_seq)
                .batch_size(queries.len())
                .ok(false),
        );
        Err(err)
    }

    /// Applies the hedging policy to a completed primary attempt that
    /// ended at the current fleet clock: when its service time exceeded the
    /// budget and another healthy replica exists, re-dispatch there and
    /// keep the earlier completion. The hedge is modelled as overlapping
    /// the primary's tail — it starts at `primary start + budget` — so the
    /// batch completes at the minimum of the two completion instants; the
    /// fleet clock is rewound to it. Returns the kept result, its replica,
    /// the batch's completion instant and whether a hedge was sent.
    fn maybe_hedge(
        &mut self,
        queries: &[SessionQuery],
        primary: FusedResult,
        dev: usize,
        start_ms: f64,
        batch_seq: u64,
    ) -> (FusedResult, usize, f64, bool) {
        let primary_end_ms = self.fleet_ms;
        let Some(budget) = self.cfg.hedge_after_ms else {
            return (primary, dev, primary_end_ms, false);
        };
        if primary_end_ms - start_ms <= budget {
            return (primary, dev, primary_end_ms, false);
        }
        let Some(hedge_dev) = self.pick(Some(dev)) else {
            return (primary, dev, primary_end_ms, false);
        };
        self.replicas[hedge_dev].stats.hedges += 1;
        self.obs.metrics.sim.hedges += 1;
        let hedge_start_ms = start_ms + budget;
        match self.attempt(hedge_dev, queries, batch_seq) {
            Ok(hedged) => {
                let hedge_end_ms = hedge_start_ms + (self.fleet_ms - primary_end_ms);
                let win = hedge_end_ms < primary_end_ms;
                self.obs.trace.push(
                    Span::new(SpanKind::Hedge, hedge_start_ms, hedge_end_ms)
                        .batch(batch_seq)
                        .replica(hedge_dev)
                        .ok(win),
                );
                if win {
                    self.obs.metrics.sim.hedge_wins += 1;
                    // Both results are bit-identical (counter-keyed RNG);
                    // keep the winner's and its earlier completion.
                    debug_assert_eq!(
                        hedged.per_query.len(),
                        primary.per_query.len(),
                        "hedge must mirror the primary batch"
                    );
                    self.fleet_ms = hedge_end_ms;
                    return (hedged, hedge_dev, hedge_end_ms, true);
                }
            }
            Err(_) => {
                // A failed hedge never hurts the already-complete primary;
                // the failure is recorded against the hedge replica, its
                // span ending where the fleet clock stands before the rewind.
                self.obs.trace.push(
                    Span::new(SpanKind::Hedge, hedge_start_ms, self.fleet_ms)
                        .batch(batch_seq)
                        .replica(hedge_dev)
                        .ok(false),
                );
            }
        }
        // The primary finished first (or the hedge failed): its completion
        // stands, the hedge only burned spare capacity.
        self.fleet_ms = primary_end_ms;
        (primary, dev, primary_end_ms, true)
    }
}

impl Dispatch for ReplicaPool {
    fn now_ms(&self) -> f64 {
        self.fleet_ms
    }

    fn validate(&self, init: &[Vec<VertexId>]) -> Result<(), NextDoorError> {
        validate_run(self.graph(), self.app(), init)
    }

    fn health(&self) -> (usize, usize) {
        (self.healthy_count(), self.num_replicas())
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    fn dispatch(&mut self, queries: &[SessionQuery]) -> Result<PoolResponse, ServeError> {
        ReplicaPool::dispatch(self, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{FleetBatcher, Priority, Request, RequestId, ServeConfig};
    use crate::health::BreakerState;
    use nextdoor_apps::KHop;
    use nextdoor_graph::gen::{rmat, RmatParams};

    fn graph() -> Csr {
        rmat(8, 1500, RmatParams::SKEWED, 11)
    }

    fn app() -> Box<dyn SamplingApp + Send> {
        Box::new(KHop::new(vec![2, 2]))
    }

    fn pool_with_plans(plans: Vec<FaultPlan>, cfg: PoolConfig) -> ReplicaPool {
        let g = graph();
        let devices = plans
            .into_iter()
            .map(|p| {
                let mut gpu = Gpu::new(GpuSpec::small());
                if !p.is_empty() {
                    gpu.inject_faults(p);
                }
                (gpu, app())
            })
            .collect();
        ReplicaPool::new(devices, &g, cfg).unwrap()
    }

    fn req(seed: u64) -> Request {
        Request::new((0..4).map(|i| vec![i as u32]).collect(), seed)
    }

    fn queries(seed: u64) -> Vec<SessionQuery> {
        vec![SessionQuery {
            init: (0..4).map(|i| vec![i as u32]).collect(),
            seed,
        }]
    }

    #[test]
    fn routes_to_least_loaded_replica() {
        let mut pool = pool_with_plans(
            vec![FaultPlan::new(), FaultPlan::new()],
            PoolConfig::default(),
        );
        let a = pool.dispatch(&queries(1)).unwrap();
        let b = pool.dispatch(&queries(2)).unwrap();
        assert_ne!(
            a.replica, b.replica,
            "second batch goes to the idle replica"
        );
        let rep = pool.report_core();
        assert_eq!(rep.batches, 2);
        assert_eq!(rep.requests, 2);
        assert_eq!(rep.retries, 0);
        assert!(rep.fleet_ms > 0.0);
    }

    #[test]
    fn device_loss_fails_over_with_identical_samples() {
        let mut clean = pool_with_plans(vec![FaultPlan::new()], PoolConfig::default());
        let want = clean.dispatch(&queries(7)).unwrap();

        let mut pool = pool_with_plans(
            vec![FaultPlan::new().lose_device_at_launch(0), FaultPlan::new()],
            PoolConfig::default(),
        );
        let got = pool.dispatch(&queries(7)).unwrap();
        assert_eq!(got.replica, 1, "survivor served the batch");
        assert_eq!(got.retries, 1);
        assert_eq!(
            got.fused.per_query[0].final_samples(),
            want.fused.per_query[0].final_samples(),
            "replica choice never changes the samples"
        );
        let rep = pool.report_core();
        assert!(rep.replicas[0].lost);
        assert_eq!(rep.replicas[0].failures, 1);
        assert_eq!(rep.retries, 1);
    }

    #[test]
    fn all_replicas_lost_is_typed() {
        let mut pool = pool_with_plans(
            vec![
                FaultPlan::new().lose_device_at_launch(0),
                FaultPlan::new().lose_device_at_launch(0),
            ],
            PoolConfig::default(),
        );
        assert_eq!(
            pool.dispatch(&queries(1)).err(),
            Some(ServeError::NoHealthyReplica { replicas: 2 })
        );
        assert_eq!(pool.healthy_count(), 0);
    }

    #[test]
    fn transient_storm_trips_breaker_then_recovers_on_fleet_clock() {
        // A dense transient range makes every step attempt fault until the
        // launch counter escapes it, so single-replica dispatches fail with
        // KernelFault, trip the breaker, and probes eventually recover it.
        // (A clean fused query here is ~20 launches; a failed dispatch
        // burns ~40 across its internal step retries, so 200 storm
        // launches force several consecutive dispatch failures.)
        let storm = FaultPlan {
            transient_launches: (0..200).collect(),
            ..FaultPlan::new()
        };
        let cfg = PoolConfig {
            max_retries: 50,
            backoff_base_ms: 0.01,
            hedge_after_ms: None,
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_ms: 0.5,
            },
        };
        let mut pool = pool_with_plans(vec![storm], cfg);
        let res = pool.dispatch(&queries(3)).unwrap();
        assert!(res.retries > 0, "the storm forced serving-level retries");
        let rep = pool.report_core();
        assert!(rep.replicas[0].trips >= 1, "breaker tripped");
        assert!(rep.replicas[0].probes >= 1, "half-open probes happened");
        assert_eq!(
            rep.replicas[0].recoveries, 1,
            "a probe finally closed the breaker"
        );
        assert!(rep.cooldown_waits >= 1, "the pool waited out a cool-down");
        assert!(matches!(
            pool.breaker(0).state(),
            BreakerState::Closed { .. }
        ));

        // The recovered samples equal a fault-free run's.
        let mut clean = pool_with_plans(vec![FaultPlan::new()], PoolConfig::default());
        let want = clean.dispatch(&queries(3)).unwrap();
        assert_eq!(
            res.fused.per_query[0].final_samples(),
            want.fused.per_query[0].final_samples()
        );
    }

    #[test]
    fn hedging_counts_and_keeps_samples_identical() {
        let cfg = PoolConfig {
            hedge_after_ms: Some(0.0), // hedge every batch
            ..PoolConfig::default()
        };
        let mut pool = pool_with_plans(vec![FaultPlan::new(), FaultPlan::new()], cfg);
        let res = pool.dispatch(&queries(9)).unwrap();
        assert!(res.hedged);
        let rep = pool.report_core();
        assert_eq!(rep.hedges, 1);
        assert_eq!(
            rep.replicas[0].dispatches + rep.replicas[1].dispatches,
            2,
            "primary plus hedge"
        );
        let mut clean = pool_with_plans(vec![FaultPlan::new()], PoolConfig::default());
        let want = clean.dispatch(&queries(9)).unwrap();
        assert_eq!(
            res.fused.per_query[0].final_samples(),
            want.fused.per_query[0].final_samples()
        );
    }

    #[test]
    fn degraded_fleet_shrinks_batches_and_sheds_lowest_priority() {
        let serve_cfg = ServeConfig {
            max_batch: 4,
            max_queue: 8,
            default_deadline_ms: None,
        };
        let pool = pool_with_plans(
            vec![
                FaultPlan::new(),
                FaultPlan::new().lose_device_at_launch(0),
                FaultPlan::new().lose_device_at_launch(0),
            ],
            PoolConfig::default(),
        );
        let mut fb = FleetBatcher::new(pool, serve_cfg).unwrap();
        // Kill two of three replicas first: the opening batch lands on
        // replica 0 (all idle, lowest index wins), the second routes to
        // idle replica 1, dies, fails over through replica 2 (dies too)
        // and completes on replica 0.
        for s in [100, 101] {
            fb.submit(req(s)).unwrap();
            let probe = fb.drain();
            assert!(probe.iter().all(|(_, r)| r.is_ok()));
        }
        assert_eq!(fb.pool().healthy_count(), 1);

        // Fill the queue: 8 requests, one of them Low priority. The two
        // probe submissions took ids 0 and 1, so these are ids 2..=9.
        let mut ids = Vec::new();
        for s in 1..=8 {
            let mut r = req(s);
            if s == 5 {
                r = r.with_priority(Priority::Low);
            }
            ids.push(fb.submit(r).unwrap());
        }
        let low_id = ids[4];
        let served = fb.drain();
        // Capacity scaled to 8 * 1/3 = 2: six requests shed, Low first.
        let shed: Vec<RequestId> = served
            .iter()
            .filter(|(_, r)| matches!(r, Err(ServeError::Overloaded { .. })))
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(shed.len(), 6);
        assert_eq!(
            shed[0], low_id,
            "the Low-priority request is shed before any Normal one"
        );
        let ok: Vec<RequestId> = served
            .iter()
            .filter(|(_, r)| r.is_ok())
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ok, vec![ids[0], ids[1]], "FIFO survivors");
        for (_, r) in served.iter().filter(|(_, r)| r.is_ok()) {
            assert!(
                r.as_ref().unwrap().latency.batch_size <= 1,
                "batch cap scaled 4 -> 1 with one of three replicas healthy"
            );
        }
        let rep = fb.report();
        assert_eq!(rep.shed, 6);
        assert_eq!(rep.degraded_intervals.len(), 1);
        assert!(rep.degraded_intervals[0].1 > rep.degraded_intervals[0].0);
    }

    #[test]
    fn fleet_batcher_matches_single_session_samples() {
        let pool = pool_with_plans(
            vec![FaultPlan::new(), FaultPlan::new()],
            PoolConfig::default(),
        );
        let mut fb = FleetBatcher::new(pool, ServeConfig::default()).unwrap();
        let ids: Vec<_> = (0..3).map(|s| fb.submit(req(50 + s)).unwrap()).collect();
        let served = fb.drain();
        assert_eq!(served.len(), 3);
        assert_eq!(
            served.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ids,
            "FIFO completion order"
        );
        // Bit-identity per request against a standalone session.
        let mut solo = SamplerSession::new(GpuSpec::small(), graph(), app()).unwrap();
        for (i, (_, res)) in served.into_iter().enumerate() {
            let seed = 50 + i as u64;
            let resp = res.unwrap();
            assert!(resp.latency.batch_size >= 1);
            let want = solo.query(&req(seed).init, seed).unwrap();
            assert_eq!(resp.store.final_samples(), want.store.final_samples());
        }
    }
}
