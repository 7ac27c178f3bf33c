//! Deterministic metrics for the serving tier: counters and fixed-bucket
//! histograms whose snapshots are **bit-identical at any host thread
//! count**.
//!
//! Everything that feeds the digest derives from the simulated clock (the
//! session clock for a [`MicroBatcher`](crate::MicroBatcher), the fleet
//! clock for a [`ReplicaPool`](crate::ReplicaPool)) or from deterministic
//! scheduling decisions, and is recorded on the single scheduler thread in
//! a fixed order — so histogram sums accumulate over bit-identical values
//! in a bit-identical sequence and the whole snapshot golden-pins like the
//! engine's reports. Wall-clock latency is the one nondeterministic
//! series; it lives beside the deterministic block
//! ([`ServeMetrics::wall_ms`]) and is deliberately **excluded** from
//! [`ServeMetrics::digest`] while still appearing in the JSON export.
//!
//! Bucket bounds are fixed constants, not configuration-derived, so
//! digests from different runs and different configs line up
//! bucket-for-bucket.

use std::io;
use std::path::Path;

use crate::batcher::Priority;
use nextdoor_gpu::json_escape;

/// Upper bounds (ms) of the latency histograms, spanning sub-launch waits
/// to multi-second stalls.
pub const LATENCY_BOUNDS_MS: [f64; 16] = [
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
];

/// Upper bounds of the queue-depth histogram (requests waiting at batch
/// formation).
pub const DEPTH_BOUNDS: [f64; 9] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Upper bounds of the batch-width histogram (initial vertices per sample
/// of the batch's width class).
pub const WIDTH_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Upper bounds of the batch-size histogram (requests fused per dispatch).
pub const SIZE_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// A fixed-bucket histogram: cumulative-style upper bounds (a value lands
/// in the first bucket whose bound it does not exceed; one overflow bucket
/// catches the rest) plus exact count/sum/min/max.
///
/// Observation is plain f64 accumulation in recording order, so two runs
/// observing the same sequence of values produce bit-identical state.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Histogram {
    /// An empty histogram over the given fixed upper bounds (one extra
    /// overflow bucket is appended internally).
    pub fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// Records one value.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observed value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observed value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Mean of observed values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The fixed upper bounds.
    pub fn bounds(&self) -> &[f64] {
        self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; last = overflow).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Deterministic upper-bound quantile estimate: the bound of the first
    /// bucket at which the cumulative count reaches `q` of the total (the
    /// exact max for the overflow bucket). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return match self.bounds.get(i) {
                    Some(&b) => Some(b),
                    None => self.max,
                };
            }
        }
        self.max
    }

    fn to_json(&self) -> String {
        let bounds: Vec<String> = self.bounds.iter().map(|b| format!("{b:?}")).collect();
        let counts: Vec<String> = self.counts.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"bounds\":[{}],\"counts\":[{}],\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
            bounds.join(","),
            counts.join(","),
            self.count,
            json_f64(self.sum),
            opt_json_f64(self.min),
            opt_json_f64(self.max),
        )
    }
}

/// Finite floats in `{:?}` round-trip form; non-finite as JSON `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn opt_json_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_f64)
}

/// Outcome counters and the total-latency histogram for one priority
/// level. "SLO" here is the request's deadline: a request attains its SLO
/// iff it completes at or before its deadline (no-deadline requests attain
/// trivially on completion).
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityMetrics {
    /// Requests completed within their deadline (or having none).
    pub completed: u64,
    /// Requests served but past their deadline.
    pub deadline_missed: u64,
    /// Requests shed from the queue after their deadline expired unserved.
    pub expired_shed: u64,
    /// Requests shed by degraded-mode load shedding.
    pub overload_shed: u64,
    /// End-to-end simulated latency of served requests.
    pub total_ms: Histogram,
}

impl PriorityMetrics {
    fn new() -> Self {
        PriorityMetrics {
            completed: 0,
            deadline_missed: 0,
            expired_shed: 0,
            overload_shed: 0,
            total_ms: Histogram::new(&LATENCY_BOUNDS_MS),
        }
    }

    /// Fraction of this priority's finished requests that attained their
    /// SLO (completed in time, out of completed + missed + shed). `None`
    /// when no request of this priority finished.
    pub fn slo_attainment(&self) -> Option<f64> {
        let denom = self.completed + self.deadline_missed + self.expired_shed + self.overload_shed;
        (denom > 0).then(|| self.completed as f64 / denom as f64)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"completed\":{},\"deadline_missed\":{},\"expired_shed\":{},\
             \"overload_shed\":{},\"slo_attainment\":{},\"total_ms\":{}}}",
            self.completed,
            self.deadline_missed,
            self.expired_shed,
            self.overload_shed,
            opt_json_f64(self.slo_attainment()),
            self.total_ms.to_json(),
        )
    }
}

/// The deterministic block of the registry: everything here derives from
/// the simulated clock and deterministic scheduling, and is covered by
/// [`ServeMetrics::digest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests bounced at admission with `QueueFull`.
    pub queue_rejected: u64,
    /// Requests completed within their deadline (or having none).
    pub completed: u64,
    /// Requests served but past their deadline.
    pub deadline_missed: u64,
    /// Requests shed unserved after their deadline expired in the queue.
    pub expired_shed: u64,
    /// Requests shed by degraded-mode load shedding (`Overloaded`).
    pub overload_shed: u64,
    /// Requests that failed with a non-recoverable sampling error.
    pub failed: u64,
    /// Batches dispatched to a device.
    pub batches: u64,
    /// Fused launch sequences across all dispatches (one per width class
    /// per batch).
    pub class_launches: u64,
    /// Dispatch retries after recoverable replica failures.
    pub retries: u64,
    /// Hedged dispatches issued.
    pub hedges: u64,
    /// Hedges that beat the primary.
    pub hedge_wins: u64,
    /// Times the scheduler waited out a breaker cool-down.
    pub cooldown_waits: u64,
    /// Walkers handed between shards during super-step exchanges (sharded
    /// pool only; zero for replicated and single-session tiers).
    pub handoffs: u64,
    /// Sharded super-steps executed across all dispatches (sharded pool
    /// only).
    pub super_steps: u64,
    /// Requests shed because their seeds' home shard was permanently lost
    /// (`ShardLost`; sharded pool only).
    pub shard_shed: u64,
    /// Requests waiting in the queue at each batch formation.
    pub queue_depth: Histogram,
    /// Requests fused per dispatched batch.
    pub batch_size: Histogram,
    /// Width class (initial vertices per sample) per fused launch sequence.
    pub batch_width: Histogram,
    /// Simulated ms each served request waited before its batch launched.
    pub queued_ms: Histogram,
    /// Simulated ms of device service per served request.
    pub service_ms: Histogram,
    /// End-to-end simulated ms per served request.
    pub total_ms: Histogram,
    /// Per-priority outcome breakdown, indexed `[low, normal, high]`.
    pub per_priority: [PriorityMetrics; 3],
}

impl SimMetrics {
    fn new() -> Self {
        SimMetrics {
            admitted: 0,
            queue_rejected: 0,
            completed: 0,
            deadline_missed: 0,
            expired_shed: 0,
            overload_shed: 0,
            failed: 0,
            batches: 0,
            class_launches: 0,
            retries: 0,
            hedges: 0,
            hedge_wins: 0,
            cooldown_waits: 0,
            handoffs: 0,
            super_steps: 0,
            shard_shed: 0,
            queue_depth: Histogram::new(&DEPTH_BOUNDS),
            batch_size: Histogram::new(&SIZE_BOUNDS),
            batch_width: Histogram::new(&WIDTH_BOUNDS),
            queued_ms: Histogram::new(&LATENCY_BOUNDS_MS),
            service_ms: Histogram::new(&LATENCY_BOUNDS_MS),
            total_ms: Histogram::new(&LATENCY_BOUNDS_MS),
            per_priority: [
                PriorityMetrics::new(),
                PriorityMetrics::new(),
                PriorityMetrics::new(),
            ],
        }
    }
}

/// Autotuner and hot-transit-cache counters harvested from the batcher's
/// session after each drain (see
/// [`SamplerSession::cache_stats`](nextdoor_core::session::SamplerSession::cache_stats)).
/// Deterministic — every field derives from the session's query history —
/// but kept **beside** [`SimMetrics`] rather than inside it so the
/// long-standing serve digests stay stable; tuned-session goldens pin this
/// block separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuningMetrics {
    /// Transit segments served with their adjacency arena-resident.
    pub cache_hits: u64,
    /// Transit segments served without residency.
    pub cache_misses: u64,
    /// Transits promoted into the session arena.
    pub installs: u64,
    /// Transits demoted out of the session arena.
    pub evictions: u64,
    /// Maintenance passes that fell back to the uncached path for lack of
    /// device memory.
    pub pressure_fallbacks: u64,
    /// Steps that skipped the scheduling index: the steps the
    /// [`StepEngine::Auto`](nextdoor_core::tuning::StepEngine::Auto) engine
    /// routed to the sample-parallel kernel.
    pub sched_reuses: u64,
    /// Steps whose scheduling index was built on the device.
    pub sched_builds: u64,
    /// Times the autotuner changed the active [`TuningPlan`](nextdoor_core::tuning::TuningPlan).
    pub plan_updates: u64,
}

impl TuningMetrics {
    /// `cache_hits / (cache_hits + cache_misses)`, or `None` before any
    /// segment was served.
    ///
    /// ```
    /// use nextdoor_serve::TuningMetrics;
    /// let mut t = TuningMetrics::default();
    /// assert_eq!(t.hit_rate(), None);
    /// t.cache_hits = 3;
    /// t.cache_misses = 1;
    /// assert_eq!(t.hit_rate(), Some(0.75));
    /// ```
    pub fn hit_rate(&self) -> Option<f64> {
        let n = self.cache_hits + self.cache_misses;
        (n > 0).then(|| self.cache_hits as f64 / n as f64)
    }

    fn to_json(self) -> String {
        format!(
            "{{\"cache_hits\":{},\"cache_misses\":{},\"installs\":{},\"evictions\":{},\
             \"pressure_fallbacks\":{},\"sched_reuses\":{},\"sched_builds\":{},\
             \"plan_updates\":{},\"hit_rate\":{}}}",
            self.cache_hits,
            self.cache_misses,
            self.installs,
            self.evictions,
            self.pressure_fallbacks,
            self.sched_reuses,
            self.sched_builds,
            self.plan_updates,
            opt_json_f64(self.hit_rate()),
        )
    }
}

fn pidx(p: Priority) -> usize {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

const PRIORITY_NAMES: [&str; 3] = ["low", "normal", "high"];

/// The serving tier's metrics registry: a deterministic block
/// ([`ServeMetrics::sim`], digest-pinned) plus the wall-clock latency
/// histogram (reported, never digested). One registry serves one batcher
/// or one replica pool; see the [module docs](self) for the determinism
/// argument.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Simulated-clock counters and histograms (the digest-covered block).
    pub sim: SimMetrics,
    /// Autotuner and session-cache counters (deterministic; pinned by the
    /// tuned-session goldens rather than [`ServeMetrics::digest`], which
    /// predates tuning).
    pub tuning: TuningMetrics,
    /// Wall-clock end-to-end latency (ms) as observed by the server's
    /// scheduler thread. Machine- and load-dependent: excluded from
    /// [`ServeMetrics::digest`].
    pub wall_ms: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// An empty registry.
    pub fn new() -> Self {
        ServeMetrics {
            sim: SimMetrics::new(),
            tuning: TuningMetrics::default(),
            wall_ms: Histogram::new(&LATENCY_BOUNDS_MS),
        }
    }

    /// Read access to one priority's breakdown.
    pub fn priority(&self, p: Priority) -> &PriorityMetrics {
        &self.sim.per_priority[pidx(p)]
    }

    pub(crate) fn priority_mut(&mut self, p: Priority) -> &mut PriorityMetrics {
        &mut self.sim.per_priority[pidx(p)]
    }

    /// Records a wall-clock end-to-end latency sample (ms). Reported in
    /// the JSON export only; never part of the digest.
    pub fn observe_wall_ms(&mut self, ms: f64) {
        self.wall_ms.observe(ms);
    }

    /// A point-in-time copy of the registry.
    pub fn snapshot(&self) -> ServeMetrics {
        self.clone()
    }

    /// Canonical digest of the deterministic block: the pretty-printed
    /// debug form of [`ServeMetrics::sim`] (f64 debug formatting is
    /// round-trip exact, so this pins every bit). Identical at any host
    /// thread count; golden-pinned in `tests/determinism.rs`.
    pub fn digest(&self) -> String {
        format!("{:#?}\n", self.sim)
    }

    /// The JSON metrics report (schema
    /// `schemas/serve_metrics.schema.json`): counters, histograms and the
    /// per-priority SLO breakdown, plus the nondeterministic wall-clock
    /// histogram under its own key.
    pub fn to_json(&self, label: &str) -> String {
        let s = &self.sim;
        let counters = format!(
            "{{\"admitted\":{},\"queue_rejected\":{},\"completed\":{},\"deadline_missed\":{},\
             \"expired_shed\":{},\"overload_shed\":{},\"failed\":{},\"batches\":{},\
             \"class_launches\":{},\"retries\":{},\"hedges\":{},\"hedge_wins\":{},\
             \"cooldown_waits\":{},\"handoffs\":{},\"super_steps\":{},\"shard_shed\":{}}}",
            s.admitted,
            s.queue_rejected,
            s.completed,
            s.deadline_missed,
            s.expired_shed,
            s.overload_shed,
            s.failed,
            s.batches,
            s.class_launches,
            s.retries,
            s.hedges,
            s.hedge_wins,
            s.cooldown_waits,
            s.handoffs,
            s.super_steps,
            s.shard_shed,
        );
        let histograms = format!(
            "{{\"queue_depth\":{},\"batch_size\":{},\"batch_width\":{},\"queued_ms\":{},\
             \"service_ms\":{},\"total_ms\":{}}}",
            s.queue_depth.to_json(),
            s.batch_size.to_json(),
            s.batch_width.to_json(),
            s.queued_ms.to_json(),
            s.service_ms.to_json(),
            s.total_ms.to_json(),
        );
        let per_priority: Vec<String> = PRIORITY_NAMES
            .iter()
            .zip(s.per_priority.iter())
            .map(|(name, m)| format!("\"{name}\":{}", m.to_json()))
            .collect();
        format!(
            "{{\n  \"schema\": \"nextdoor-serve-metrics-v1\",\n  \"label\": \"{}\",\n  \
             \"counters\": {counters},\n  \"histograms\": {histograms},\n  \
             \"per_priority\": {{{}}},\n  \"tuning\": {},\n  \"wall_ms\": {}\n}}\n",
            json_escape(label),
            per_priority.join(","),
            self.tuning.to_json(),
            self.wall_ms.to_json(),
        )
    }

    /// Writes [`ServeMetrics::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_json(&self, path: &Path, label: &str) -> io::Result<()> {
        std::fs::write(path, self.to_json(label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&SIZE_BOUNDS);
        for v in [1.0, 1.0, 3.0, 40.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket_counts()[0], 2); // <= 1
        assert_eq!(h.bucket_counts()[2], 1); // <= 4
        assert_eq!(h.bucket_counts()[SIZE_BOUNDS.len()], 1); // overflow
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(40.0));
        assert_eq!(h.mean(), Some(45.0 / 4.0));
    }

    #[test]
    fn quantile_is_bucket_upper_bound() {
        let mut h = Histogram::new(&SIZE_BOUNDS);
        for v in 1..=8 {
            h.observe(v as f64);
        }
        assert_eq!(h.quantile(0.5), Some(4.0));
        assert_eq!(h.quantile(1.0), Some(8.0));
        assert_eq!(Histogram::new(&SIZE_BOUNDS).quantile(0.5), None);
    }

    #[test]
    fn quantile_overflow_bucket_reports_max() {
        let mut h = Histogram::new(&SIZE_BOUNDS);
        h.observe(1000.0);
        assert_eq!(h.quantile(0.99), Some(1000.0));
    }

    #[test]
    fn digest_ignores_wall_clock() {
        let mut a = ServeMetrics::new();
        let mut b = ServeMetrics::new();
        a.sim.admitted = 3;
        b.sim.admitted = 3;
        a.observe_wall_ms(1.25);
        b.observe_wall_ms(900.0);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.wall_ms, b.wall_ms);
    }

    #[test]
    fn slo_attainment_counts_all_finished() {
        let mut m = PriorityMetrics::new();
        assert_eq!(m.slo_attainment(), None);
        m.completed = 3;
        m.deadline_missed = 1;
        m.expired_shed = 1;
        m.overload_shed = 1;
        assert_eq!(m.slo_attainment(), Some(0.5));
    }

    #[test]
    fn json_report_is_shaped() {
        let mut m = ServeMetrics::new();
        m.sim.admitted = 2;
        m.sim.queued_ms.observe(0.5);
        m.observe_wall_ms(1.0);
        let j = m.to_json("unit \"test\"");
        assert!(j.contains("\"schema\": \"nextdoor-serve-metrics-v1\""));
        assert!(j.contains("unit \\\"test\\\""));
        assert!(j.contains("\"per_priority\""));
        assert!(j.contains("\"tuning\""));
        assert!(j.contains("\"hit_rate\":null"));
        assert!(j.contains("\"wall_ms\""));
        assert!(j.contains("\"slo_attainment\":null"));
        assert!(j.trim_start().starts_with('{') && j.trim_end().ends_with('}'));
    }
}
