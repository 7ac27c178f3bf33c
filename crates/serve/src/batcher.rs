//! Request micro-batching: one [`Batcher`] over a pluggable [`Dispatch`]
//! backend.
//!
//! The batcher is the deterministic core of the serving layer: it admits
//! requests into a bounded queue and, on every drain, forms fused
//! transit-parallel batches, hands each to its backend (one warm
//! [`SamplerSession`] via [`SessionBackend`], a replicated
//! [`ReplicaPool`], or a partitioned
//! [`ShardedPool`](crate::ShardedPool)), then hands each request its own
//! slot of the backend's [`PoolResponse`]. Fusion is a
//! pure throughput lever — each request's samples are bit-identical to
//! running it alone, because the engines key every RNG draw by the
//! request's own `(seed, local id)` regardless of where the batcher packs
//! it. [`MicroBatcher`] and [`FleetBatcher`] name two of the
//! instantiations; `Batcher<ShardedPool>` is the third.
//!
//! **Who records what**: the batcher records every request-level fact —
//! admission, queue rejection, the queued interval, completion,
//! deadline misses, `completed`, `queued_ms`, `service_ms` and
//! `total_ms` — once per request. The backend records only batch-level
//! facts (dispatch, attempt, super-step and launch spans, batch sizes,
//! retries, hedges, hand-offs) plus the shed of any query it refuses at
//! dispatch, whose typed error comes back in that query's result slot and
//! is passed through as its outcome.
//!
//! **Batch formation** is width-class and deadline aware, not FIFO: the
//! step planner sizes the shared transit array from one vertices-per-sample
//! count, so only requests of equal initial width can share a launch. Each
//! formation picks the globally most *urgent* pending request (earliest
//! absolute deadline on the backend's simulated clock; [`Priority`] then
//! admission order break ties), and batches it with the up-to-
//! [`ServeConfig::max_batch`] most urgent requests of its width class — a
//! lone mismatched-width request no longer head-of-line-blocks everything
//! behind it into singleton launches. Requests whose deadline has already
//! expired while queued are shed *before* batch formation, without
//! consuming device time. When the backend reports less than full health
//! (a pool with replicas down), the batch cap shrinks proportionally and
//! excess pending requests are shed lowest priority first with
//! [`ServeError::Overloaded`]; a single session and a sharded pool are
//! always fully healthy (a lost shard sheds only the queries homed on it).
//! All of this is a pure function of the queue contents and the simulated
//! clock, so serving schedules are bit-identical at any host thread count.
//!
//! All admission control and scheduling is synchronous and deterministic
//! here; the thread that makes it a service lives in [`crate::server`].

use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use crate::replica::{FleetReport, PoolResponse, ReplicaPool};
use crate::server::{BatchEngine, RequestOutcome};
use crate::trace::{Obs, Span, SpanKind, Tracer};
use nextdoor_core::session::{SamplerSession, SessionQuery};
use nextdoor_core::tuning::{CacheConfig, TunerConfig};
use nextdoor_core::{validate_run, ClassMark, FaultReport, NextDoorError, SampleStore};
use nextdoor_gpu::GpuSpec;
use nextdoor_graph::VertexId;

/// Scheduling knobs of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Most requests fused into a single launch.
    pub max_batch: usize,
    /// Bound on admitted-but-unserved requests; submissions past it are
    /// rejected with [`ServeError::QueueFull`].
    pub max_queue: usize,
    /// Deadline applied to requests that do not carry their own, in
    /// simulated milliseconds from admission to batch completion. `None`
    /// means no deadline.
    pub default_deadline_ms: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_queue: 64,
            default_deadline_ms: None,
        }
    }
}

impl ServeConfig {
    /// Checks the knobs for sanity: a zero batch cap or queue bound could
    /// never serve anything, and a non-positive (or non-finite) default
    /// deadline would reject every request it applied to.
    ///
    /// [`Batcher::new`] calls this, so a nonsensical configuration is a
    /// typed construction error rather than silently clamped behaviour.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_batch must be at least 1",
            });
        }
        if self.max_queue == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_queue must be at least 1",
            });
        }
        if let Some(d) = self.default_deadline_ms {
            if !d.is_finite() || d <= 0.0 {
                return Err(ServeError::InvalidConfig {
                    reason: "default_deadline_ms must be finite and positive",
                });
            }
        }
        Ok(())
    }
}

/// Scheduling priority of a request. The [`Batcher`] uses it as the
/// tie-break between equal deadlines when forming batches (`High` is
/// scheduled before `Normal` before `Low`), and sheds strictly
/// lowest-priority-first when a backend's healthy capacity (a
/// [`FleetBatcher`]'s replicas) drops below demand, so `Low` traffic
/// absorbs degradation before `Normal`, and `Normal` before `High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Best-effort traffic: first to be shed under degraded capacity.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-critical traffic: shed only after everything else.
    High,
}

/// One sampling request as submitted by a client.
#[derive(Debug, Clone)]
pub struct Request {
    /// Initial vertices of each requested sample (equal widths required
    /// within the request; requests of different widths are still served,
    /// they just cannot share a fused launch).
    pub init: Vec<Vec<VertexId>>,
    /// RNG seed of the request — the samples are exactly those of a
    /// standalone `run_nextdoor` call with this seed.
    pub seed: u64,
    /// Per-request deadline in simulated milliseconds, overriding
    /// [`ServeConfig::default_deadline_ms`].
    pub deadline_ms: Option<f64>,
    /// Shedding priority under degraded capacity (see [`Priority`]).
    pub priority: Priority,
}

impl Request {
    /// A request with no deadline of its own and [`Priority::Normal`].
    pub fn new(init: Vec<Vec<VertexId>>, seed: u64) -> Self {
        Request {
            init,
            seed,
            deadline_ms: None,
            priority: Priority::Normal,
        }
    }

    /// The same request at a different shedding priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The same request with a per-request deadline, in simulated
    /// milliseconds from admission to batch completion.
    pub fn with_deadline(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

/// Identifies an admitted request across `submit`/`drain` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Per-request latency, measured on the device's simulated clock (the
/// same counter/profile machinery that times engine runs — see
/// [`SamplerSession::sim_ms`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestLatency {
    /// Simulated ms the request waited between admission and its batch
    /// starting.
    pub queued_ms: f64,
    /// Simulated ms of the fused batch that served the request.
    pub service_ms: f64,
    /// Admission-to-completion simulated ms (`queued_ms + service_ms`).
    pub total_ms: f64,
    /// Requests fused into the launch that served this one.
    pub batch_size: usize,
}

/// A served request: its sliced sample store plus how it was served.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's samples — bit-identical to a standalone run with the
    /// request's `(init, seed)`.
    pub store: SampleStore,
    /// Latency breakdown on the simulated clock.
    pub latency: RequestLatency,
    /// Faults the fused batch observed and survived.
    pub report: FaultReport,
}

/// An admitted request waiting to be served.
struct Pending {
    id: RequestId,
    req: Request,
    /// Instant of admission on the backend's simulated clock.
    admit_ms: f64,
}

/// The deadline a pending request is held to, if any (its own, else the
/// configured default), in simulated ms from admission.
fn deadline_of(cfg: &ServeConfig, p: &Pending) -> Option<f64> {
    p.req.deadline_ms.or(cfg.default_deadline_ms)
}

/// Rejects at admission a request whose own deadline could never be met:
/// a non-positive budget is already expired before any queueing or
/// service, and a non-finite one is meaningless.
fn validate_deadline(req: &Request) -> Result<(), ServeError> {
    if let Some(d) = req.deadline_ms {
        if !d.is_finite() {
            return Err(ServeError::InvalidConfig {
                reason: "request deadline_ms must be finite",
            });
        }
        if d <= 0.0 {
            return Err(ServeError::DeadlineExceeded {
                deadline_ms: d,
                observed_ms: 0.0,
            });
        }
    }
    Ok(())
}

/// Scheduling urgency order: earliest absolute deadline on the simulated
/// clock first (no deadline sorts last), [`Priority`] (descending) breaks
/// deadline ties, admission order breaks the rest — so a stream of
/// deadline-less equal-priority requests is served strictly FIFO.
fn urgency(cfg: &ServeConfig, a: &Pending, b: &Pending) -> Ordering {
    let abs = |p: &Pending| deadline_of(cfg, p).map_or(f64::INFINITY, |d| p.admit_ms + d);
    abs(a)
        .total_cmp(&abs(b))
        .then(b.req.priority.cmp(&a.req.priority))
        .then(a.id.cmp(&b.id))
}

/// Records a served request's lifecycle: its queued interval, its
/// completion span (`ok` = attained its deadline), the deadline-miss
/// marker when it finished late, and the latency histograms.
fn record_served(
    obs: &mut Obs,
    p: &Pending,
    batch_seq: u64,
    start_ms: f64,
    end_ms: f64,
    in_time: bool,
) {
    obs.trace.push(
        Span::new(SpanKind::Queued, p.admit_ms, start_ms)
            .request(p.id)
            .priority(p.req.priority)
            .batch(batch_seq),
    );
    obs.trace.push(
        Span::new(SpanKind::Completion, p.admit_ms, end_ms)
            .request(p.id)
            .priority(p.req.priority)
            .batch(batch_seq)
            .ok(in_time),
    );
    if !in_time {
        obs.trace.push(
            Span::instant(SpanKind::DeadlineMiss, end_ms)
                .request(p.id)
                .priority(p.req.priority)
                .batch(batch_seq),
        );
    }
    let sim = &mut obs.metrics.sim;
    sim.queued_ms.observe(start_ms - p.admit_ms);
    sim.service_ms.observe(end_ms - start_ms);
    sim.total_ms.observe(end_ms - p.admit_ms);
    if in_time {
        sim.completed += 1;
    } else {
        sim.deadline_missed += 1;
    }
    let pm = obs.metrics.priority_mut(p.req.priority);
    pm.total_ms.observe(end_ms - p.admit_ms);
    if in_time {
        pm.completed += 1;
    } else {
        pm.deadline_missed += 1;
    }
}

/// Records one [`SpanKind::ClassLaunch`] span per width class of a fused
/// run (the device-clock interval, converted by the device's `spec`, is
/// mapped onto the recording tier's clock by `dev_offset_ms`; `replica`
/// tags it on a replicated pool) and the width-class metrics. Shared by
/// both backends so launch spans look the same on every tier.
pub(crate) fn record_class_launches(
    obs: &mut Obs,
    batch_seq: u64,
    replica: Option<usize>,
    marks: &[ClassMark],
    spec: &GpuSpec,
    dev_offset_ms: f64,
) {
    for m in marks {
        let mut s = Span::new(
            SpanKind::ClassLaunch,
            spec.cycles_to_ms(m.start_cycles) + dev_offset_ms,
            spec.cycles_to_ms(m.end_cycles) + dev_offset_ms,
        )
        .batch(batch_seq)
        .width(m.width)
        .batch_size(m.queries)
        .launches((m.launch_start, m.launch_end));
        s.replica = replica;
        obs.trace.push(s);
        obs.metrics.sim.batch_width.observe(m.width as f64);
    }
    obs.metrics.sim.class_launches += marks.len() as u64;
}

/// What a [`Batcher`] dispatches fused batches to: one warm session
/// ([`SessionBackend`]), a replicated pool ([`ReplicaPool`]) or a sharded
/// pool ([`ShardedPool`](crate::ShardedPool)). The batcher owns queueing,
/// admission, shedding, formation, the per-request fan-out and every
/// request-level fact; the backend owns the device(s), the clock they run
/// on and the span/metrics recorder, so a fleet's trace stays one ordered
/// stream.
pub trait Dispatch {
    /// The backend's simulated clock in ms (the session clock or the fleet
    /// clock): admission instants and deadlines are measured on it.
    fn now_ms(&self) -> f64;

    /// Checks a request's initial samples against the served graph and
    /// app (see [`validate_run`]).
    ///
    /// # Errors
    ///
    /// The typed [`NextDoorError`] of an invalid input.
    fn validate(&self, init: &[Vec<VertexId>]) -> Result<(), NextDoorError>;

    /// `(healthy, total)` serving units. Below full health the batcher
    /// shrinks its batch cap and sheds excess requests.
    fn health(&self) -> (usize, usize);

    /// The span stream and metrics registry every serving event goes to.
    fn obs(&self) -> &Obs;

    /// Mutable access to [`Dispatch::obs`].
    fn obs_mut(&mut self) -> &mut Obs;

    /// Runs one fused batch, recording the backend's own dispatch spans
    /// and batch metrics (never per-request ones), and brackets it on the
    /// backend's clock. The response holds one result per query, in
    /// order; an `Err` slot is a query the backend refused or shed, and
    /// recorded as such.
    ///
    /// # Errors
    ///
    /// The typed error the whole batch failed with.
    fn dispatch(&mut self, queries: &[SessionQuery]) -> Result<PoolResponse, ServeError>;

    /// Runs after every formed batch, served or failed. No-op by default.
    fn after_batch(&mut self) {}
}

/// The single-session backend of a [`MicroBatcher`]: one warm
/// [`SamplerSession`] and its observation state.
pub struct SessionBackend {
    session: SamplerSession,
    obs: Obs,
}

impl From<SamplerSession> for SessionBackend {
    fn from(session: SamplerSession) -> Self {
        SessionBackend {
            session,
            obs: Obs::default(),
        }
    }
}

impl Dispatch for SessionBackend {
    fn now_ms(&self) -> f64 {
        self.session.sim_ms()
    }

    fn validate(&self, init: &[Vec<VertexId>]) -> Result<(), NextDoorError> {
        validate_run(self.session.graph(), self.session.app(), init)
    }

    fn health(&self) -> (usize, usize) {
        (1, 1)
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Runs the batch as one [`SamplerSession::query_fused`] call. The
    /// session clock is the dispatch clock, so class launch intervals map
    /// with zero offset.
    fn dispatch(&mut self, queries: &[SessionQuery]) -> Result<PoolResponse, ServeError> {
        let n = queries.len();
        let start_ms = self.session.sim_ms();
        let launch0 = self.session.gpu().launches_issued();
        let batch_seq = self.obs.trace.next_batch_id();
        let res = self.session.query_fused(queries);
        let end_ms = self.session.sim_ms();
        let launch1 = self.session.gpu().launches_issued();
        self.obs.trace.push(
            Span::new(SpanKind::Dispatch, start_ms, end_ms)
                .batch(batch_seq)
                .batch_size(n)
                .launches((launch0, launch1))
                .ok(res.is_ok()),
        );
        self.obs.metrics.sim.batches += 1;
        match res {
            Ok(fused) => {
                let spec = self.session.gpu().spec();
                record_class_launches(
                    &mut self.obs,
                    batch_seq,
                    None,
                    &fused.class_marks,
                    spec,
                    0.0,
                );
                self.obs.metrics.sim.batch_size.observe(n as f64);
                Ok(PoolResponse::served(fused, batch_seq, start_ms, end_ms))
            }
            Err(e) => {
                self.obs.metrics.sim.failed += n as u64;
                Err(ServeError::Sampling(e))
            }
        }
    }

    /// Copies the session's tuner/cache counters into the metrics registry
    /// and emits a [`SpanKind::CacheInstall`] span whenever a maintenance
    /// pass changed the resident set — at the same query boundary where
    /// the session itself retunes.
    fn after_batch(&mut self) {
        let t = &mut self.obs.metrics.tuning;
        t.plan_updates = self.session.plan_updates();
        let Some(s) = self.session.cache_stats() else {
            return;
        };
        let installs_changed = s.installs != t.installs || s.evictions != t.evictions;
        t.cache_hits = s.hits;
        t.cache_misses = s.misses;
        t.installs = s.installs;
        t.evictions = s.evictions;
        t.pressure_fallbacks = s.pressure_fallbacks;
        t.sched_reuses = s.sched_reuses;
        t.sched_builds = s.sched_builds;
        if installs_changed {
            self.obs.trace.push(
                Span::instant(SpanKind::CacheInstall, self.session.sim_ms())
                    .batch_size(self.session.cache_resident_len()),
            );
        }
    }
}

/// Admits sampling requests into a bounded queue and serves them in fused
/// batches through a [`Dispatch`] backend. See the [module docs](self).
pub struct Batcher<D: Dispatch> {
    backend: D,
    cfg: ServeConfig,
    pending: VecDeque<Pending>,
    next_id: u64,
    degraded_since: Option<f64>,
    degraded_intervals: Vec<(f64, f64)>,
}

/// The single-session batcher: a [`Batcher`] over one warm
/// [`SamplerSession`].
pub type MicroBatcher = Batcher<SessionBackend>;

/// The replicated batcher: a [`Batcher`] over a fault-tolerant
/// [`ReplicaPool`].
pub type FleetBatcher = Batcher<ReplicaPool>;

impl<D: Dispatch> Batcher<D> {
    /// Wraps a backend (a [`SamplerSession`], a [`ReplicaPool`] or a
    /// [`ShardedPool`](crate::ShardedPool)) in a batcher with the given
    /// scheduling knobs.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the knobs fail
    /// [`ServeConfig::validate`].
    pub fn new(backend: impl Into<D>, cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        Ok(Batcher {
            backend: backend.into(),
            cfg,
            pending: VecDeque::new(),
            next_id: 0,
            degraded_since: None,
            degraded_intervals: Vec::new(),
        })
    }

    /// Admits a request, or rejects it with backpressure.
    ///
    /// Admission is where a request can be refused without touching the
    /// device: a full queue returns [`ServeError::QueueFull`], invalid
    /// inputs (empty/ragged initial samples, out-of-range roots) return
    /// [`ServeError::Sampling`], and a request whose deadline budget is
    /// already non-positive (it could never complete in time) returns
    /// [`ServeError::DeadlineExceeded`] immediately — so only runnable
    /// requests ever occupy queue slots.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`], [`ServeError::Sampling`],
    /// [`ServeError::DeadlineExceeded`] and [`ServeError::InvalidConfig`]
    /// (non-finite deadline), as above.
    pub fn submit(&mut self, req: Request) -> Result<RequestId, ServeError> {
        let now = self.backend.now_ms();
        let depth = self.pending.len();
        if depth >= self.cfg.max_queue {
            let obs = self.backend.obs_mut();
            obs.metrics.sim.queue_rejected += 1;
            obs.trace.push(
                Span::instant(SpanKind::QueueReject, now)
                    .priority(req.priority)
                    .depth(depth),
            );
            return Err(ServeError::QueueFull {
                capacity: self.cfg.max_queue,
            });
        }
        validate_deadline(&req)?;
        self.backend.validate(&req.init)?;
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let priority = req.priority;
        self.pending.push_back(Pending {
            id,
            req,
            admit_ms: now,
        });
        let obs = self.backend.obs_mut();
        obs.metrics.sim.admitted += 1;
        obs.trace.push(
            Span::instant(SpanKind::Admission, now)
                .request(id)
                .priority(priority)
                .depth(depth + 1),
        );
        Ok(id)
    }

    /// Serves every pending request and returns the outcomes in completion
    /// order.
    ///
    /// Before each batch formation, a degraded backend sheds the requests
    /// beyond its surviving capacity with [`ServeError::Overloaded`], and
    /// requests whose deadline already expired while queued are shed with
    /// [`ServeError::DeadlineExceeded`] — neither touches the device. Each
    /// batch is then formed by urgency (see [module docs](self)): the most
    /// urgent request's width class, earliest-deadline-first within it,
    /// capped at [`ServeConfig::max_batch`], run as a single fused
    /// dispatch. A request that finishes past its deadline gets
    /// [`ServeError::DeadlineExceeded`] while the rest of its batch
    /// completes normally; a batch whose dispatch fails fans the same typed
    /// error out to each of its requests and later batches are still
    /// attempted.
    pub fn drain(&mut self) -> Vec<(RequestId, RequestOutcome)> {
        let mut out = Vec::with_capacity(self.pending.len());
        loop {
            self.update_degradation();
            self.shed_excess(&mut out);
            let now = self.backend.now_ms();
            self.shed_expired(now, &mut out);
            if self.pending.is_empty() {
                break;
            }
            let depth = self.pending.len();
            let batch = self.form_batch();
            let obs = self.backend.obs_mut();
            obs.metrics.sim.queue_depth.observe(depth as f64);
            obs.trace.push(
                Span::instant(SpanKind::Formation, now)
                    .depth(depth)
                    .batch_size(batch.len()),
            );
            self.run_batch(batch, &mut out);
            self.backend.after_batch();
        }
        out
    }

    /// Opens/closes the degraded-mode interval as healthy capacity crosses
    /// full health.
    fn update_degradation(&mut self) {
        let (healthy, total) = self.backend.health();
        let now = self.backend.now_ms();
        match (healthy < total, self.degraded_since) {
            (true, None) => self.degraded_since = Some(now),
            (false, Some(start)) => {
                self.degraded_intervals.push((start, now));
                self.degraded_since = None;
            }
            _ => {}
        }
    }

    /// `knob` scaled to the backend's healthy fraction (at least 1); the
    /// knob itself at full health.
    fn scaled_to_health(&self, knob: usize) -> usize {
        let (healthy, total) = self.backend.health();
        if healthy >= total {
            knob
        } else {
            (knob * healthy / total).max(1)
        }
    }

    /// Under degraded capacity, sheds pending requests beyond the scaled
    /// queue budget: strictly lowest priority first, latest-admitted first
    /// within a priority. Deterministic, and it never touches a request
    /// that fits the surviving capacity. A no-op at full health, where the
    /// budget is the admission bound itself.
    fn shed_excess(&mut self, out: &mut Vec<(RequestId, RequestOutcome)>) {
        let (healthy, total) = self.backend.health();
        let capacity = self.scaled_to_health(self.cfg.max_queue);
        let now = self.backend.now_ms();
        while self.pending.len() > capacity {
            let victim = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| (p.req.priority, std::cmp::Reverse(p.id)))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let Some(p) = self.pending.remove(victim) else {
                break;
            };
            let obs = self.backend.obs_mut();
            obs.metrics.sim.overload_shed += 1;
            obs.metrics.priority_mut(p.req.priority).overload_shed += 1;
            obs.trace.push(
                Span::instant(SpanKind::OverloadShed, now)
                    .request(p.id)
                    .priority(p.req.priority)
                    .depth(healthy),
            );
            out.push((
                p.id,
                Err(ServeError::Overloaded {
                    healthy,
                    replicas: total,
                }),
            ));
        }
    }

    /// Sheds every pending request whose deadline has already expired at
    /// `now` (queue wait alone reached the budget), without consuming any
    /// device time. Remaining requests keep their admission order. Each
    /// shed is recorded as an [`SpanKind::Expired`] span and an
    /// `expired_shed` count.
    fn shed_expired(&mut self, now: f64, out: &mut Vec<(RequestId, RequestOutcome)>) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            let expired = deadline_of(&self.cfg, p).is_some_and(|d| now - p.admit_ms >= d);
            if !expired {
                i += 1;
                continue;
            }
            if let Some(p) = self.pending.remove(i) {
                let d = deadline_of(&self.cfg, &p).unwrap_or(0.0);
                let obs = self.backend.obs_mut();
                obs.trace.push(
                    Span::new(SpanKind::Expired, p.admit_ms, now)
                        .request(p.id)
                        .priority(p.req.priority),
                );
                obs.metrics.sim.expired_shed += 1;
                obs.metrics.priority_mut(p.req.priority).expired_shed += 1;
                out.push((
                    p.id,
                    Err(ServeError::DeadlineExceeded {
                        deadline_ms: d,
                        observed_ms: now - p.admit_ms,
                    }),
                ));
            }
        }
    }

    /// Forms the next batch: the globally most urgent pending request
    /// anchors it, and the batch is the most urgent requests of the
    /// anchor's width class, in urgency order, up to the batch cap (scaled
    /// down by the backend's health). Other width classes stay queued for
    /// later formations. Must be called with a non-empty queue.
    fn form_batch(&mut self) -> Vec<Pending> {
        let cap = self.scaled_to_health(self.cfg.max_batch);
        let (cfg, pending) = (&self.cfg, &mut self.pending);
        let anchor_width = pending
            .iter()
            .min_by(|a, b| urgency(cfg, a, b))
            .map_or(0, |p| p.req.init[0].len());
        let mut class: Vec<usize> = (0..pending.len())
            .filter(|&i| pending[i].req.init[0].len() == anchor_width)
            .collect();
        class.sort_by(|&a, &b| urgency(cfg, &pending[a], &pending[b]));
        class.truncate(cap);
        // Remove back-to-front so earlier indices stay valid, then restore
        // urgency order within the batch.
        class.sort_unstable_by(|a, b| b.cmp(a));
        let mut batch: Vec<Pending> = class
            .into_iter()
            .filter_map(|i| pending.remove(i))
            .collect();
        batch.sort_by(|a, b| urgency(cfg, a, b));
        batch
    }

    fn run_batch(&mut self, batch: Vec<Pending>, out: &mut Vec<(RequestId, RequestOutcome)>) {
        let queries: Vec<SessionQuery> = batch
            .iter()
            .map(|p| SessionQuery {
                init: p.req.init.clone(),
                seed: p.req.seed,
            })
            .collect();
        let pr = match self.backend.dispatch(&queries) {
            Ok(pr) => pr,
            Err(e) => {
                out.extend(batch.into_iter().map(|p| (p.id, Err(e.clone()))));
                return;
            }
        };
        let batch_size = batch.len();
        for (p, result) in batch.into_iter().zip(pr.results) {
            // The backend recorded the shed or rejection of an `Err` slot.
            let store = match result {
                Ok(store) => store,
                Err(e) => {
                    out.push((p.id, Err(e)));
                    continue;
                }
            };
            let observed_ms = pr.end_ms - p.admit_ms;
            let late = deadline_of(&self.cfg, &p).filter(|&d| observed_ms > d);
            record_served(
                self.backend.obs_mut(),
                &p,
                pr.batch,
                pr.start_ms,
                pr.end_ms,
                late.is_none(),
            );
            let result = match late {
                Some(d) => Err(ServeError::DeadlineExceeded {
                    deadline_ms: d,
                    observed_ms,
                }),
                None => Ok(Response {
                    store,
                    latency: RequestLatency {
                        queued_ms: pr.start_ms - p.admit_ms,
                        service_ms: pr.end_ms - pr.start_ms,
                        total_ms: observed_ms,
                        batch_size,
                    },
                    report: pr.report.clone(),
                }),
            };
            out.push((p.id, result));
        }
    }

    /// Requests admitted but not yet served or shed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The batcher's scheduling knobs.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The recorded request-lifecycle span stream (see [`crate::trace`]);
    /// on a pool, batcher and pool spans share this one recorder, ordered
    /// by recording sequence.
    pub fn trace(&self) -> &Tracer {
        &self.backend.obs().trace
    }

    /// The batcher's deterministic metrics registry (see
    /// [`crate::metrics`]).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.backend.obs().metrics
    }

    /// Records a wall-clock end-to-end latency sample into the metrics
    /// registry's (non-digested) wall histogram.
    pub fn observe_wall_ms(&mut self, ms: f64) {
        self.backend.obs_mut().metrics.observe_wall_ms(ms);
    }

    /// The underlying backend (a pool, or a [`SessionBackend`]).
    pub fn pool(&self) -> &D {
        &self.backend
    }

    /// Mutable access to the backend (e.g. to schedule chaos mid-run).
    pub fn pool_mut(&mut self) -> &mut D {
        &mut self.backend
    }

    /// Tears the batcher down, recovering the backend.
    pub fn into_pool(self) -> D {
        self.backend
    }
}

impl<D: Dispatch + Send + 'static> BatchEngine for Batcher<D> {
    fn submit(&mut self, req: Request) -> Result<RequestId, ServeError> {
        Batcher::submit(self, req)
    }

    fn drain(&mut self) -> Vec<(RequestId, RequestOutcome)> {
        Batcher::drain(self)
    }

    fn observe_wall_ms(&mut self, ms: f64) {
        Batcher::observe_wall_ms(self, ms);
    }
}

impl MicroBatcher {
    /// Fused launch sequences dispatched to the device so far — the
    /// batcher's fusion effectiveness: fewer launches for the same served
    /// requests means better amortisation of per-launch fixed costs.
    /// Requests shed before dispatch consume none.
    pub fn launches(&self) -> u64 {
        self.metrics().sim.class_launches
    }

    /// Enables profile-guided autotuning and the cross-query hot-transit
    /// cache on the underlying session (see
    /// [`nextdoor_core::tuning`]). The batcher harvests the resulting
    /// counters into [`ServeMetrics::tuning`] after every served batch and
    /// traces cache maintenance as [`SpanKind::CacheInstall`] spans.
    /// Samples are unaffected — tuning moves only launch geometry and
    /// cost, so responses stay bit-identical to an untuned batcher's.
    pub fn enable_tuning(&mut self, tuner: TunerConfig, cache: CacheConfig) {
        self.backend.session.enable_autotune(tuner);
        self.backend.session.enable_hot_cache(cache);
    }

    /// The underlying warm session.
    pub fn session(&self) -> &SamplerSession {
        &self.backend.session
    }

    /// Mutable access to the underlying session (e.g. to inject a fault
    /// plan between drains).
    pub fn session_mut(&mut self) -> &mut SamplerSession {
        &mut self.backend.session
    }

    /// Tears the batcher down, recovering the warm session.
    pub fn into_session(self) -> SamplerSession {
        self.backend.session
    }
}

impl FleetBatcher {
    /// The full fleet report: the pool's [`ReplicaPool::report_core`] plus
    /// this batcher's degraded-mode intervals (an interval still open is
    /// closed at the current fleet clock).
    pub fn report(&self) -> FleetReport {
        let mut rep = self.backend.report_core();
        rep.degraded_intervals = self.degraded_intervals.clone();
        if let Some(start) = self.degraded_since {
            rep.degraded_intervals
                .push((start, self.backend.fleet_ms()));
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TuningMetrics;
    use nextdoor_apps::KHop;
    use nextdoor_core::tuning::TuningPlan;
    use nextdoor_core::{classify_kernel, KernelPhase, NextDoorError};
    use nextdoor_gpu::GpuSpec;
    use nextdoor_graph::gen::{rmat, RmatParams};

    fn batcher(cfg: ServeConfig) -> MicroBatcher {
        let g = rmat(8, 1500, RmatParams::SKEWED, 11);
        let session =
            SamplerSession::new(GpuSpec::small(), g, Box::new(KHop::new(vec![2, 2]))).unwrap();
        MicroBatcher::new(session, cfg).unwrap()
    }

    fn req(width: usize, seed: u64) -> Request {
        Request::new((0..6).map(|i| vec![i as u32; width]).collect(), seed)
    }

    #[test]
    fn equal_width_requests_fuse_and_match_solo_runs() {
        let mut b = batcher(ServeConfig::default());
        let ids: Vec<_> = (0..3).map(|s| b.submit(req(1, 50 + s)).unwrap()).collect();
        assert_eq!(b.pending_len(), 3);
        let served = b.drain();
        assert_eq!(b.pending_len(), 0);
        assert_eq!(served.len(), 3);
        for ((id, res), want_id) in served.iter().zip(&ids) {
            assert_eq!(id, want_id);
            let resp = res.as_ref().unwrap();
            assert_eq!(resp.latency.batch_size, 3);
            assert!(resp.latency.service_ms > 0.0);
            assert!(resp.report.is_clean());
        }
        // Bit-identity: each response equals the same query served alone.
        for (i, (_, res)) in served.into_iter().enumerate() {
            let solo = b
                .session_mut()
                .query(&req(1, 50 + i as u64).init, 50 + i as u64)
                .unwrap();
            assert_eq!(
                res.unwrap().store.final_samples(),
                solo.store.final_samples()
            );
        }
    }

    #[test]
    fn mixed_widths_fuse_by_class_instead_of_head_of_line_blocking() {
        // Regression for the old FIFO-prefix rule: widths [1,1,2,1] used to
        // split at the width change into batches 1,1 | 2 | 1 — three
        // launches, with the trailing width-1 request degraded to a
        // singleton. Width-class formation serves all width-1 requests in
        // one launch and the width-2 request in another.
        let mut b = batcher(ServeConfig::default());
        let ids = [
            b.submit(req(1, 1)).unwrap(),
            b.submit(req(1, 2)).unwrap(),
            b.submit(req(2, 3)).unwrap(),
            b.submit(req(1, 4)).unwrap(),
        ];
        let served = b.drain();
        assert_eq!(b.launches(), 2, "two width classes, two launches");
        let order: Vec<RequestId> = served.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            order,
            vec![ids[0], ids[1], ids[3], ids[2]],
            "the width-1 class (admission order) completes first, then width-2"
        );
        let sizes: Vec<usize> = served
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().latency.batch_size)
            .collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn priority_breaks_scheduling_ties() {
        // With no deadlines anywhere, urgency degenerates to priority then
        // admission order: the High request jumps the queue at formation.
        let mut b = batcher(ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        });
        let normal = b.submit(req(1, 1)).unwrap();
        let high = b.submit(req(1, 2).with_priority(Priority::High)).unwrap();
        let served = b.drain();
        let order: Vec<RequestId> = served.iter().map(|(id, _)| *id).collect();
        assert_eq!(order, vec![high, normal]);
        assert!(served.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn expired_requests_are_shed_without_device_time() {
        // Measure one clean singleton batch on an identical batcher...
        let mut probe = batcher(ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        });
        probe.submit(req(1, 1)).unwrap();
        let probe_served = probe.drain();
        let service_ms = probe_served[0].1.as_ref().unwrap().latency.service_ms;
        assert!(service_ms > 0.0);

        // ...then hold two requests to deadlines shorter than that. EDF
        // runs the 0.6x request first (it misses after full service); by
        // the next formation the 0.8x request's wait alone exceeds its
        // budget, so it is shed *before* dispatch: one launch total.
        let mut b = batcher(ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        });
        let first = b.submit(req(1, 1).with_deadline(0.6 * service_ms)).unwrap();
        let starved = b.submit(req(1, 2).with_deadline(0.8 * service_ms)).unwrap();
        let served = b.drain();
        assert_eq!(
            b.launches(),
            1,
            "the expired request never reaches the device"
        );
        assert_eq!(served[0].0, first);
        assert!(matches!(
            served[0].1,
            Err(ServeError::DeadlineExceeded { observed_ms, .. }) if observed_ms >= service_ms
        ));
        assert_eq!(served[1].0, starved);
        match &served[1].1 {
            Err(ServeError::DeadlineExceeded {
                deadline_ms,
                observed_ms,
            }) => {
                assert!((deadline_ms - 0.8 * service_ms).abs() < 1e-12);
                assert!(
                    *observed_ms >= *deadline_ms,
                    "shed because queue wait alone exhausted the budget"
                );
            }
            other => panic!("starved request should be shed, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_and_deadlines_are_typed_construction_errors() {
        let g = rmat(8, 1500, RmatParams::SKEWED, 11);
        let session =
            SamplerSession::new(GpuSpec::small(), g, Box::new(KHop::new(vec![2, 2]))).unwrap();
        let err = |cfg: ServeConfig| cfg.validate().err();
        assert!(matches!(
            err(ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            }),
            Some(ServeError::InvalidConfig { reason }) if reason.contains("max_batch")
        ));
        assert!(matches!(
            err(ServeConfig {
                max_queue: 0,
                ..ServeConfig::default()
            }),
            Some(ServeError::InvalidConfig { reason }) if reason.contains("max_queue")
        ));
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                err(ServeConfig {
                    default_deadline_ms: Some(bad),
                    ..ServeConfig::default()
                }),
                Some(ServeError::InvalidConfig { reason }) if reason.contains("default_deadline_ms")
            ));
        }
        // The constructor applies the same validation.
        let mut b = match MicroBatcher::new(
            session,
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
        ) {
            Err(ServeError::InvalidConfig { .. }) => {
                let g = rmat(8, 1500, RmatParams::SKEWED, 11);
                let session =
                    SamplerSession::new(GpuSpec::small(), g, Box::new(KHop::new(vec![2, 2])))
                        .unwrap();
                MicroBatcher::new(session, ServeConfig::default()).unwrap()
            }
            other => panic!("max_batch = 0 must be rejected, got {:?}", other.is_ok()),
        };
        // Admission rejects deadlines that are already unmeetable.
        assert!(matches!(
            b.submit(req(1, 1).with_deadline(0.0)).err(),
            Some(ServeError::DeadlineExceeded {
                deadline_ms,
                observed_ms,
            }) if deadline_ms == 0.0 && observed_ms == 0.0
        ));
        assert!(matches!(
            b.submit(req(1, 1).with_deadline(-5.0)).err(),
            Some(ServeError::DeadlineExceeded { .. })
        ));
        assert!(matches!(
            b.submit(req(1, 1).with_deadline(f64::NAN)).err(),
            Some(ServeError::InvalidConfig { .. })
        ));
        assert_eq!(b.pending_len(), 0, "rejected requests hold no queue slot");
    }

    #[test]
    fn max_batch_caps_fusion() {
        let mut b = batcher(ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        });
        for s in 0..5 {
            b.submit(req(1, s)).unwrap();
        }
        let served = b.drain();
        let sizes: Vec<usize> = served
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().latency.batch_size)
            .collect();
        assert_eq!(sizes, vec![2, 2, 2, 2, 1]);
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let mut b = batcher(ServeConfig {
            max_queue: 2,
            ..ServeConfig::default()
        });
        b.submit(req(1, 1)).unwrap();
        b.submit(req(1, 2)).unwrap();
        assert_eq!(
            b.submit(req(1, 3)).err(),
            Some(ServeError::QueueFull { capacity: 2 })
        );
        b.drain();
        b.submit(req(1, 3)).expect("drained queue admits again");
    }

    #[test]
    fn invalid_requests_are_rejected_at_admission() {
        let mut b = batcher(ServeConfig::default());
        let bad = Request::new(vec![vec![u32::MAX]], 0);
        assert!(matches!(
            b.submit(bad),
            Err(ServeError::Sampling(NextDoorError::RootOutOfRange { .. }))
        ));
        assert_eq!(b.pending_len(), 0, "rejected requests hold no queue slot");
    }

    #[test]
    fn missed_deadline_is_typed_while_batchmates_complete() {
        let mut b = batcher(ServeConfig::default());
        let relaxed = b.submit(req(1, 1)).unwrap();
        // A hair above zero: admissible, but any real service time misses.
        let strict = b.submit(req(1, 2).with_deadline(1e-9)).unwrap();
        let served = b.drain();
        assert_eq!(b.launches(), 1, "both requests share one fused launch");
        // EDF puts the deadline-carrying request first in the batch.
        assert_eq!(served[0].0, strict);
        assert!(matches!(
            served[0].1,
            Err(ServeError::DeadlineExceeded { deadline_ms, .. }) if deadline_ms == 1e-9
        ));
        assert_eq!(served[1].0, relaxed);
        assert!(served[1].1.is_ok());
    }

    #[test]
    fn queue_wait_shows_up_in_latency() {
        let mut b = batcher(ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        });
        b.submit(req(1, 1)).unwrap();
        b.submit(req(1, 2)).unwrap();
        let served = b.drain();
        let first = served[0].1.as_ref().unwrap().latency;
        let second = served[1].1.as_ref().unwrap().latency;
        assert_eq!(first.queued_ms, 0.0, "first batch starts immediately");
        assert!(
            second.queued_ms > 0.0,
            "second request waited for the first batch"
        );
        assert!((second.total_ms - second.queued_ms - second.service_ms).abs() < 1e-9);
    }

    #[test]
    fn tuned_batcher_matches_untuned_and_reports_counters() {
        let cache = CacheConfig {
            min_hits: 1,
            ..CacheConfig::default()
        };
        // A plan pinned to the NextDoor engine builds an index every step
        // and so exercises the transit arena.
        let mut tuned = batcher(ServeConfig::default());
        tuned.session_mut().set_tuning_plan(TuningPlan {
            tight_key_range: true,
            ..TuningPlan::default()
        });
        tuned.session_mut().enable_hot_cache(cache);
        // The autotuner's ready plan runs the Auto engine.
        let mut auto = batcher(ServeConfig::default());
        auto.enable_tuning(
            TunerConfig {
                warmup_queries: 1,
                ..TunerConfig::default()
            },
            cache,
        );
        let mut plain = batcher(ServeConfig::default());
        for round in 0..4u64 {
            for s in 0..3u64 {
                let seed = 100 + round * 3 + s;
                tuned.submit(req(1, seed)).unwrap();
                auto.submit(req(1, seed)).unwrap();
                plain.submit(req(1, seed)).unwrap();
            }
            let a = tuned.drain();
            let c = auto.drain();
            let b = plain.drain();
            assert_eq!(a.len(), b.len());
            assert_eq!(c.len(), b.len());
            for (((_, ra), (_, rb)), (_, rc)) in a.into_iter().zip(b).zip(c) {
                // The headline invariant: tuning and caching move launch
                // geometry and cost only — never the samples.
                let want = rb.unwrap().store.final_samples();
                assert_eq!(ra.unwrap().store.final_samples(), want);
                assert_eq!(rc.unwrap().store.final_samples(), want);
            }
        }
        // The Auto engine routed steps to the sample-parallel kernel and
        // served the same traffic in less simulated time.
        let sp_cycles: f64 = auto
            .session()
            .gpu()
            .profile()
            .kernels()
            .filter(|k| classify_kernel(&k.name) == KernelPhase::SampleParallel)
            .map(|k| k.cycles)
            .sum();
        assert!(sp_cycles > 0.0);
        assert!(auto.session().sim_ms() < plain.session().sim_ms());
        assert!(auto.metrics().tuning.sched_reuses > 0);
        assert_eq!(auto.metrics().tuning.plan_updates, 1);
        let t = tuned.metrics().tuning;
        assert!(t.installs > 0, "repeated transits should be promoted");
        assert!(t.cache_hits + t.cache_misses > 0);
        assert!(t.sched_builds > 0);
        assert!(
            tuned.trace().count(SpanKind::CacheInstall) > 0,
            "maintenance passes are traced"
        );
        assert_eq!(
            plain.metrics().tuning,
            TuningMetrics::default(),
            "an untuned batcher reports all-zero tuning counters"
        );
        assert!(tuned.metrics().to_json("t").contains("\"tuning\""));
    }
}
