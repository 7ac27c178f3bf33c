//! Profile-guided autotuning and cross-query hot-transit caching.
//!
//! The paper fixes its load-balancing parameters once for all workloads:
//! transits become sub-warp work below 32 threads, thread-block work below
//! 1024, grid work above (Table 2); the block kernels always launch 1024
//! threads; the sub-warp kernel preloads a fixed multiple of the expected
//! accesses into registers; and the scheduling index always radix-sorts
//! with a key range of `num_vertices`. Those guesses are exactly what the
//! per-kernel profiler measures, so a session that answers repeated queries
//! over one graph can do better: an [`AutoTuner`] consumes the
//! [`RunProfile`]s of a session's first queries and derives a per-workload
//! [`TuningPlan`], which the engine's planner and launch path honor on
//! subsequent queries. A ready plan also runs under [`StepEngine::Auto`],
//! which sends a step to the sample-parallel kernel whenever
//! [`predict_step_cycles`] predicts that cheaper than building its
//! scheduling index. A [`HotTransitCache`] additionally keeps the adjacency
//! slices of frequently-hit transits resident across queries, so the warm
//! path skips the preload traffic it would otherwise repeat every query.
//!
//! # Determinism
//!
//! Tuning never changes samples. Every sampled value is produced by
//! [`run_next_individual`](crate::engine)'s counter-keyed RNG, addressed by
//! `(seed, sample, step, slot)` — launch geometry, kernel-class assignment,
//! the step engine, preload depth and cache hits only change *where* and
//! *at what cost* a lane runs, never which draws it makes. The plan itself
//! is derived only at query boundaries from completed profiles, so no
//! mid-query state ever feeds back into the run that produced it. `tests/tuning.rs` proptests
//! bit-identity against arbitrary valid plans and `tests/determinism.rs`
//! golden-pins a tuned session at every host thread count. See `TUNING.md`
//! for the full knob inventory and the signal→knob mapping.
//!
//! ```
//! use nextdoor_core::tuning::{AutoTuner, TunerConfig, TuningPlan};
//! use nextdoor_gpu::GpuSpec;
//!
//! // Before any profile is observed the tuner proposes the paper's
//! // baseline: Table 2 thresholds, 1024-thread blocks, full key range.
//! let tuner = AutoTuner::new(TunerConfig::default());
//! assert!(!tuner.ready());
//! assert_eq!(tuner.plan(&GpuSpec::small()), TuningPlan::default());
//! ```

use crate::engine::profile::{KernelPhase, RunProfile};
use crate::engine::scheduling::SchedulingIndex;
use crate::gpu_graph::GpuGraph;
use nextdoor_gpu::algorithms::{radix_passes, radix_sort_launches, scan_launches};
use nextdoor_gpu::{DeviceBuffer, Gpu, GpuSpec, LaunchConfig, WARP_SIZE};
use nextdoor_graph::{Csr, VertexId};
use std::collections::BTreeMap;

/// Every knob the transit-parallel engine exposes, with the paper's fixed
/// choices as defaults. A default plan reproduces the untuned engine
/// *byte-identically* — same launches, same counters, same samples — so
/// enabling tuning with a baseline plan is a no-op.
///
/// All knobs are **cost levers**: they move work between kernel classes,
/// resize launches or change preload depth, but the sampled values are a
/// function of the RNG keying alone (see the [module docs](self)). A plan
/// from an untrusted source should be passed through
/// [`TuningPlan::normalized`], which clamps every field into its valid
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningPlan {
    /// A transit needing at most this many threads (`count × m`) is
    /// sub-warp work served by register caching and shuffles. At most
    /// [`WARP_SIZE`]; the paper fixes it at 32 (Table 2).
    pub sub_warp_threshold: usize,
    /// A transit needing at most this many threads is thread-block work;
    /// above it the transit is split across the grid. Must not exceed
    /// [`TuningPlan::block_dim`] — the block kernel covers exactly one
    /// block of lanes per transit. The paper fixes it at 1024.
    pub max_block_threads: usize,
    /// Threads per block of the thread-block and grid kernels. The paper
    /// fixes it at 1024; smaller blocks spread a few huge transits over
    /// more SMs at the price of refilling the shared-memory cache per
    /// block.
    pub block_dim: usize,
    /// The sub-warp kernel preloads `preload_factor × threads` neighbours
    /// (rounded up to a sector, bounded by the register budget) into
    /// registers. The paper's heuristic is 4 — a few probes per slot.
    pub preload_factor: usize,
    /// Bound the scheduling index's radix-sort key range by the **maximum
    /// live transit id** of the step instead of `num_vertices - 1`. A
    /// tighter bound can only shed whole radix passes (the sort is stable
    /// and its output is identical), so this knob is never worse.
    pub tight_key_range: bool,
    /// Which kernels run an individual-sampling step. Collective steps
    /// always build the scheduling index.
    pub step_engine: StepEngine,
}

impl Default for TuningPlan {
    fn default() -> Self {
        TuningPlan {
            sub_warp_threshold: WARP_SIZE,
            max_block_threads: 1024,
            block_dim: 1024,
            preload_factor: 4,
            tight_key_range: false,
            step_engine: StepEngine::NextDoor,
        }
    }
}

impl TuningPlan {
    /// Clamps every knob into its valid range and restores the structural
    /// invariant `sub_warp_threshold ≤ WARP_SIZE` and
    /// `max_block_threads ≤ block_dim` (a block-class transit must fit in
    /// one launch block, or lanes would silently go unserved).
    ///
    /// ```
    /// use nextdoor_core::tuning::{StepEngine, TuningPlan};
    /// let wild = TuningPlan {
    ///     sub_warp_threshold: 1000,
    ///     max_block_threads: 4096,
    ///     block_dim: 100,
    ///     preload_factor: 1 << 20,
    ///     tight_key_range: true,
    ///     step_engine: StepEngine::Auto,
    /// };
    /// let p = wild.normalized();
    /// assert!(p.sub_warp_threshold <= 32);
    /// assert!(p.max_block_threads <= p.block_dim);
    /// assert_eq!(p.block_dim % 32, 0);
    /// ```
    #[must_use]
    pub fn normalized(mut self) -> Self {
        self.sub_warp_threshold = self.sub_warp_threshold.clamp(1, WARP_SIZE);
        self.block_dim = (self.block_dim.clamp(WARP_SIZE, 1024) / WARP_SIZE) * WARP_SIZE;
        self.max_block_threads = self
            .max_block_threads
            .clamp(self.sub_warp_threshold, self.block_dim);
        self.preload_factor = self.preload_factor.min(64);
        self
    }

    /// Whether this plan reproduces the untuned engine exactly.
    pub fn is_baseline(&self) -> bool {
        *self == TuningPlan::default()
    }
}

/// The step engine of a [`TuningPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEngine {
    /// Every step builds the scheduling index and runs the three kernel
    /// classes: the paper's engine.
    NextDoor,
    /// Each step runs the NextDoor path or the sample-parallel kernel,
    /// whichever [`predict_step_cycles`] predicts cheaper. Small steps and
    /// steps whose pairs share few transits skip the index.
    Auto,
}

/// Predicted cycles of one individual-sampling step, as
/// `(nextdoor, sample_parallel)`: the step's `live` pairs out of `slots`
/// transit slots, `m` lanes per pair, `distinct` live transits and the
/// radix-sort key bound `max_key`.
///
/// The prediction is a deterministic function of these host-known counts
/// and the device's SM count and cost model, never of measured time, so
/// the choice it drives is the same at every host thread count. It has
/// three terms, each a crude fit of the simulator's charges:
///
/// - **Launches.** NextDoor pays the index's sort, scan, compact and
///   partition launches plus one sampling launch; the sample-parallel
///   kernel is one launch. Each launch costs its overhead plus one
///   latency-bound block.
/// - **Pair traffic.** NextDoor moves each live pair through `passes + 2`
///   coalesced sectors and preloads about six sectors per distinct
///   transit. The sample-parallel kernel reads the transit slots
///   coalesced (8 per sector) and one scattered sector per live pair.
/// - **Lane traffic.** A NextDoor lane reads its transit's adjacency from
///   shared memory; a sample-parallel lane reads one scattered sector.
pub fn predict_step_cycles(
    spec: &GpuSpec,
    live: usize,
    slots: usize,
    m: usize,
    distinct: usize,
    max_key: u32,
) -> (f64, f64) {
    let c = &spec.cost;
    let launch = c.launch_overhead + 2.0 * c.block_overhead + c.global_latency / 2.0;
    let sms = spec.num_sms as f64;
    let (live_f, lanes) = (live as f64, (live * m) as f64);
    let passes = radix_passes(max_key);
    // Sort; segment flags; compact (scan + scatter); partition (classify +
    // scan).
    let index_launches =
        radix_sort_launches(live, max_key) + scan_launches(live) + scan_launches(distinct) + 3;
    let nextdoor = (index_launches + 1) as f64 * launch
        + (live_f * (passes + 2) as f64 * c.global_tx_cycles
            + distinct as f64 * 6.0 * c.global_tx_cycles
            + lanes * c.shared_cycles / 2.0)
            / sms;
    let sample_parallel = launch + (slots as f64 / 8.0 + live_f + lanes) * c.global_tx_cycles / sms;
    (nextdoor, sample_parallel)
}

/// The profile signals the tuner accumulates across observed queries:
/// simulated milliseconds per kernel phase plus the SM-utilisation and
/// occupancy of the block/grid sampling kernels. Built from in-process
/// [`RunProfile`]s via [`ProfileSummary::observe`] or from an exported
/// `results/profile_*.json` via [`ProfileSummary::from_kernel_report_json`]
/// (the worked example in `TUNING.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileSummary {
    /// Total kernel milliseconds observed.
    pub total_ms: f64,
    /// Milliseconds spent building scheduling indices (sort, scan,
    /// compact, partition).
    pub scheduling_ms: f64,
    /// Milliseconds in the sub-warp sampling kernel.
    pub subwarp_ms: f64,
    /// Milliseconds in the thread-block sampling kernels.
    pub block_ms: f64,
    /// Milliseconds in the grid sampling kernel.
    pub grid_ms: f64,
    /// Milliseconds in the sample-parallel kernel: the steps
    /// [`StepEngine::Auto`] routed around the scheduling index.
    pub sample_parallel_ms: f64,
    /// ms-weighted SM busy fraction (0..=1) of the block/grid kernels.
    pub bg_sm_utilization: f64,
    /// ms-weighted achieved occupancy (0..=1) of the block/grid kernels.
    pub bg_occupancy: f64,
    /// Profiles folded into this summary.
    pub runs: u64,
}

impl ProfileSummary {
    /// Folds one run's per-kernel breakdown into the summary.
    pub fn observe(&mut self, profile: &RunProfile) {
        self.fold(profile.kernels.iter().map(|k| KernelSignal {
            phase: k.phase,
            ms: k.ms,
            sm_utilization: if k.counters.sm_total_cycles > 0.0 {
                k.counters.sm_busy_cycles / k.counters.sm_total_cycles
            } else {
                1.0
            },
            occupancy: k.avg_occupancy,
        }));
    }

    /// Folds one run's kernels into the summary: milliseconds per phase,
    /// and the block/grid kernels' utilisation and occupancy into the
    /// running ms-weighted averages.
    fn fold(&mut self, kernels: impl IntoIterator<Item = KernelSignal>) {
        let prev_bg_ms = self.block_ms + self.grid_ms;
        let (mut bg_ms, mut bg_util, mut bg_occ) = (0.0f64, 0.0f64, 0.0f64);
        for k in kernels {
            self.total_ms += k.ms;
            match k.phase {
                KernelPhase::Scheduling => self.scheduling_ms += k.ms,
                KernelPhase::SubWarp => self.subwarp_ms += k.ms,
                KernelPhase::Block => self.block_ms += k.ms,
                KernelPhase::Grid => self.grid_ms += k.ms,
                KernelPhase::SampleParallel => self.sample_parallel_ms += k.ms,
                _ => {}
            }
            if matches!(k.phase, KernelPhase::Block | KernelPhase::Grid) {
                bg_ms += k.ms;
                bg_util += k.sm_utilization * k.ms;
                bg_occ += k.occupancy * k.ms;
            }
        }
        if bg_ms > 0.0 {
            let total_ms = prev_bg_ms + bg_ms;
            self.bg_sm_utilization = (self.bg_sm_utilization * prev_bg_ms + bg_util) / total_ms;
            self.bg_occupancy = (self.bg_occupancy * prev_bg_ms + bg_occ) / total_ms;
        }
        self.runs += 1;
    }

    /// Fraction of `ms` in the time of the NextDoor path's own kernels:
    /// the scheduling index and the three sampling classes. The knobs tune
    /// that path, and the steps [`StepEngine::Auto`] routes to the
    /// sample-parallel kernel run none of those kernels, so routing steps
    /// around the index does not dilute the signals the plan rests on.
    fn share(&self, ms: f64) -> f64 {
        let nextdoor_ms = self.scheduling_ms + self.subwarp_ms + self.block_ms + self.grid_ms;
        if nextdoor_ms > 0.0 {
            ms / nextdoor_ms
        } else {
            0.0
        }
    }

    /// Fraction of the NextDoor path's time spent building scheduling
    /// indices.
    pub fn scheduling_share(&self) -> f64 {
        self.share(self.scheduling_ms)
    }

    /// Fraction of the NextDoor path's time in the block/grid sampling
    /// kernels.
    pub fn block_grid_share(&self) -> f64 {
        self.share(self.block_ms + self.grid_ms)
    }

    /// Parses a `results/profile_<label>.json` file written by
    /// [`nextdoor_gpu::write_kernel_report`] into a summary, using the same
    /// kernel-name → phase mapping as the in-process profiler. The parser
    /// accepts exactly the report writer's output shape (an object with a
    /// `"kernels"` array); it is not a general JSON parser.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found — no
    /// `"kernels"` array, or a kernel entry without `name`/`ms`.
    pub fn from_kernel_report_json(json: &str) -> Result<ProfileSummary, String> {
        let kernels_at = json
            .find("\"kernels\"")
            .ok_or_else(|| "no \"kernels\" array in report".to_string())?;
        let rest = &json[kernels_at..];
        let open = rest
            .find('[')
            .ok_or_else(|| "\"kernels\" is not an array".to_string())?;
        let close = open
            + rest[open..]
                .find(']')
                .ok_or_else(|| "unterminated \"kernels\" array".to_string())?;
        let kernels = rest[open + 1..close]
            .split("{\"name\"")
            .skip(1)
            .map(|entry| {
                let name = json_str_field(&format!("{{\"name\"{entry}"), "name")
                    .ok_or_else(|| "kernel entry without a name".to_string())?;
                Ok(KernelSignal {
                    phase: crate::engine::profile::classify_kernel(&name),
                    ms: json_num_field(entry, "ms")
                        .ok_or_else(|| format!("kernel {name:?} has no \"ms\" field"))?,
                    // `multiprocessor_activity` is a percentage in the report.
                    sm_utilization: json_num_field(entry, "multiprocessor_activity")
                        .map_or(1.0, |p| (p / 100.0).clamp(0.0, 1.0)),
                    occupancy: json_num_field(entry, "avg_occupancy").unwrap_or(1.0),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut s = ProfileSummary::default();
        s.fold(kernels);
        Ok(s)
    }
}

/// One kernel's contribution to a [`ProfileSummary`], from an in-process
/// profile or a parsed kernel report.
struct KernelSignal {
    phase: KernelPhase,
    ms: f64,
    /// SM busy fraction (0..=1).
    sm_utilization: f64,
    /// Achieved occupancy (0..=1).
    occupancy: f64,
}

/// Extracts `"field":"value"` from a JSON fragment.
fn json_str_field(fragment: &str, field: &str) -> Option<String> {
    let key = format!("\"{field}\":\"");
    let at = fragment.find(&key)? + key.len();
    let end = fragment[at..].find('"')?;
    Some(fragment[at..at + end].to_string())
}

/// Extracts `"field":<number>` from a JSON fragment.
fn json_num_field(fragment: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let at = fragment.find(&key)? + key.len();
    let tail = &fragment[at..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// When and how aggressively the [`AutoTuner`] acts on its observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerConfig {
    /// Queries to observe before the derived plan leaves the baseline
    /// ([`AutoTuner::ready`]).
    pub warmup_queries: u64,
    /// Minimum [`ProfileSummary::scheduling_share`] before the tight
    /// key-range knob engages (it is never worse, but below this share it
    /// cannot matter either).
    pub min_scheduling_share: f64,
    /// SM busy fraction of the block/grid kernels below which the tuner
    /// considers them imbalanced (a few huge transits hogging few SMs).
    pub low_sm_utilization: f64,
    /// [`ProfileSummary::block_grid_share`] below which the tuner leaves
    /// the block geometry alone regardless of utilisation.
    pub min_block_grid_share: f64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            warmup_queries: 2,
            min_scheduling_share: 0.02,
            low_sm_utilization: 0.5,
            min_block_grid_share: 0.25,
        }
    }
}

/// Derives a [`TuningPlan`] from observed [`RunProfile`]s.
///
/// The tuner is deliberately conservative: it only moves a knob off the
/// baseline when the profile shows the knob's cost is material *and* the
/// move is predicted (or guaranteed) not to regress — the `tune_bench`
/// gate holds autotuned throughput to ≥ default across the whole
/// benchmark suite. The signal→knob mapping is documented in `TUNING.md`.
#[derive(Debug, Clone, Default)]
pub struct AutoTuner {
    cfg: TunerConfig,
    summary: ProfileSummary,
    observed: u64,
}

impl AutoTuner {
    /// A tuner with the given thresholds and nothing observed yet.
    pub fn new(cfg: TunerConfig) -> Self {
        AutoTuner {
            cfg,
            summary: ProfileSummary::default(),
            observed: 0,
        }
    }

    /// Folds one completed query's profile into the evidence. Call only at
    /// query boundaries — [`AutoTuner::plan`] never sees a partial run.
    pub fn observe(&mut self, profile: &RunProfile) {
        self.summary.observe(profile);
        self.observed += 1;
    }

    /// Folds an externally-parsed summary (e.g. from
    /// [`ProfileSummary::from_kernel_report_json`]) into the evidence.
    pub fn observe_summary(&mut self, summary: &ProfileSummary) {
        let mut s = *summary;
        // Merge by simple accumulation; the averages re-weight by ms.
        let bg_ms = s.block_ms + s.grid_ms;
        let prev_bg = self.summary.block_ms + self.summary.grid_ms;
        if prev_bg + bg_ms > 0.0 {
            s.bg_sm_utilization = (self.summary.bg_sm_utilization * prev_bg
                + s.bg_sm_utilization * bg_ms)
                / (prev_bg + bg_ms);
            s.bg_occupancy =
                (self.summary.bg_occupancy * prev_bg + s.bg_occupancy * bg_ms) / (prev_bg + bg_ms);
        }
        self.summary = ProfileSummary {
            total_ms: self.summary.total_ms + s.total_ms,
            scheduling_ms: self.summary.scheduling_ms + s.scheduling_ms,
            subwarp_ms: self.summary.subwarp_ms + s.subwarp_ms,
            block_ms: self.summary.block_ms + s.block_ms,
            grid_ms: self.summary.grid_ms + s.grid_ms,
            sample_parallel_ms: self.summary.sample_parallel_ms + s.sample_parallel_ms,
            bg_sm_utilization: s.bg_sm_utilization,
            bg_occupancy: s.bg_occupancy,
            runs: self.summary.runs + s.runs,
        };
        self.observed += s.runs;
    }

    /// Queries observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Whether enough queries were observed for the plan to leave the
    /// baseline.
    pub fn ready(&self) -> bool {
        self.observed >= self.cfg.warmup_queries
    }

    /// The accumulated evidence.
    pub fn summary(&self) -> &ProfileSummary {
        &self.summary
    }

    /// Derives the plan the evidence supports. Before
    /// [`AutoTuner::ready`], this is the baseline plan.
    pub fn plan(&self, spec: &GpuSpec) -> TuningPlan {
        let mut plan = TuningPlan::default();
        if !self.ready() {
            return plan;
        }
        let s = &self.summary;
        // The Auto engine needs no profile signal: its per-step prediction
        // is its own guard.
        plan.step_engine = StepEngine::Auto;
        // Tight key range: sheds whole radix passes with identical output,
        // so engage whenever scheduling time is visible at all.
        if s.scheduling_share() >= self.cfg.min_scheduling_share {
            plan.tight_key_range = true;
        }
        // Block geometry: when the block/grid kernels are a material share
        // of the run but leave most SMs idle, a few huge transits are each
        // pinned to one block — halving the block splits them across twice
        // as many SMs. Only do it when the spec says the smaller block
        // does not lose occupancy.
        if s.block_grid_share() >= self.cfg.min_block_grid_share
            && s.bg_sm_utilization < self.cfg.low_sm_utilization
            && spec.occupancy(512, 0) >= spec.occupancy(1024, 0)
        {
            plan.block_dim = 512;
            plan.max_block_threads = 512;
        }
        plan.normalized()
    }
}

/// Sizing and promotion policy of the [`HotTransitCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Device words (`u32` column entries) the adjacency arena may hold.
    pub max_words: usize,
    /// Minimum observed touches before a transit is promoted.
    pub min_hits: u64,
    /// Maximum resident transits, regardless of their sizes.
    pub max_entries: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_words: 1 << 16,
            min_hits: 3,
            max_entries: 512,
        }
    }
}

/// Deterministic counters of the cache's behaviour. `hits`/`misses` count
/// transit segments served per step; everything else counts maintenance
/// events at query boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Transit segments whose adjacency was arena-resident when a sampling
    /// kernel ran (the kernel skipped its preload loads).
    pub hits: u64,
    /// Transit segments served without residency.
    pub misses: u64,
    /// Transits promoted into the arena.
    pub installs: u64,
    /// Transits demoted out of the arena.
    pub evictions: u64,
    /// Maintenance passes that found no device memory for the arena and
    /// fell back to the uncached path (samples are unaffected).
    pub pressure_fallbacks: u64,
    /// Steps that skipped the scheduling index's sort / scan / compact /
    /// partition launches entirely: the steps [`StepEngine::Auto`] routed
    /// to the sample-parallel kernel.
    pub sched_reuses: u64,
    /// Steps whose scheduling index was built on the device.
    pub sched_builds: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 before any segment was served.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Cross-query residency for frequently-hit transits.
///
/// The engine's §6 caches (registers, shared memory) live and die with one
/// kernel launch; a session answering repeated traffic re-loads the same
/// hub adjacencies every query. This cache keeps the hottest transits'
/// adjacency slices in a device arena across queries: kernels that find
/// their transit resident skip the global preload loads.
///
/// Promotion and eviction happen **only at query boundaries**, from
/// deterministically-accumulated frequency counts, so cache state is a
/// pure function of the query history — bit-identical at any host thread
/// count. When the arena allocation fails under memory pressure the cache
/// falls back to the uncached path and counts a
/// [`pressure_fallback`](CacheStats::pressure_fallbacks); samples are
/// never affected.
#[derive(Debug, Default)]
pub struct HotTransitCache {
    cfg: CacheConfig,
    resident: Vec<VertexId>,
    resident_words: usize,
    arena: Option<DeviceBuffer<u32>>,
    freq: BTreeMap<VertexId, u64>,
    stats: CacheStats,
}

impl HotTransitCache {
    /// An empty cache with the given policy.
    pub fn new(cfg: CacheConfig) -> Self {
        HotTransitCache {
            cfg,
            ..HotTransitCache::default()
        }
    }

    /// The cache's behaviour counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The policy this cache runs under.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Transits currently arena-resident, ascending.
    pub fn resident(&self) -> &[VertexId] {
        &self.resident
    }

    /// Device words the arena currently holds.
    pub fn resident_words(&self) -> usize {
        self.resident_words
    }

    /// Records one step's freshly built transit→samples map: bumps each
    /// transit's frequency by its pair count and counts residency
    /// hits/misses.
    pub(crate) fn note_index(&mut self, index: &SchedulingIndex) {
        self.stats.sched_builds += 1;
        for seg in &index.segments {
            *self.freq.entry(seg.transit).or_insert(0) += seg.count as u64;
            if self.resident.binary_search(&seg.transit).is_ok() {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
        }
    }

    /// Records one step that ran without a scheduling index.
    pub(crate) fn note_index_skipped(&mut self) {
        self.stats.sched_reuses += 1;
    }

    /// Query-boundary maintenance: promotes the hottest transits into the
    /// arena, evicts the rest, charges the install transfer as a kernel,
    /// and ages the frequency counts. Runs on the session thread with no
    /// query in flight, so the next query sees a fixed cache state.
    pub(crate) fn maintain(&mut self, gpu: &mut Gpu, graph: &Csr, gg: &GpuGraph) {
        // Hottest first; ties broken by vertex id so the order is total.
        let mut cands: Vec<(u64, VertexId)> = self
            .freq
            .iter()
            .filter(|&(&t, &c)| c >= self.cfg.min_hits && graph.degree(t) > 0)
            .map(|(&t, &c)| (c, t))
            .collect();
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut new_set: Vec<VertexId> = Vec::new();
        let mut words = 0usize;
        for (_, t) in cands {
            let deg = graph.degree(t);
            if new_set.len() >= self.cfg.max_entries {
                break;
            }
            if words + deg > self.cfg.max_words {
                continue;
            }
            words += deg;
            new_set.push(t);
        }
        new_set.sort_unstable();
        if new_set != self.resident {
            self.reinstall(gpu, graph, gg, new_set, words);
        }
        // Age the frequencies so the cache tracks shifting traffic.
        self.freq.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
    }

    /// Rebuilds the arena around `new_set`, charging one coalesced install
    /// pass for the transits that were not already resident.
    fn reinstall(
        &mut self,
        gpu: &mut Gpu,
        graph: &Csr,
        gg: &GpuGraph,
        new_set: Vec<VertexId>,
        words: usize,
    ) {
        let added: Vec<VertexId> = new_set
            .iter()
            .copied()
            .filter(|t| self.resident.binary_search(t).is_err())
            .collect();
        let evicted = self
            .resident
            .iter()
            .filter(|t| new_set.binary_search(t).is_err())
            .count() as u64;
        // Free the old arena before sizing the new one.
        self.arena = None;
        let arena = match gpu.try_alloc::<u32>(words.max(1)) {
            Ok(buf) => buf,
            Err(_) => {
                // Injected allocation faults must not leak into the next
                // query's step loop (it would discard a clean step).
                let _ = gpu.take_faults();
                self.stats.pressure_fallbacks += 1;
                self.resident.clear();
                self.resident_words = 0;
                return;
            }
        };
        // Arena offsets of every resident transit, in ascending-id order.
        let mut offsets = BTreeMap::new();
        let mut off = 0usize;
        for &t in &new_set {
            offsets.insert(t, off);
            off += graph.degree(t);
        }
        // One coalesced pass copies the *new* transits' slices in.
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for &t in &added {
            let (start, _) = graph.adjacency_range(t);
            let base = offsets[&t];
            for i in 0..graph.degree(t) {
                src.push(start + i);
                dst.push(base + i);
            }
        }
        if !src.is_empty() {
            let n = src.len();
            gpu.launch("cache_install", LaunchConfig::grid1d(n, 256), |blk| {
                blk.for_each_warp(|w| {
                    let gid = w.global_thread_ids();
                    let m = w.mask_where(|l| gid[l] < n);
                    if m == 0 {
                        return;
                    }
                    let sidx = gid.map(|g| src[g.min(n - 1)]);
                    let v = w.ld_global(&gg.cols, &sidx, m);
                    let didx = gid.map(|g| dst[g.min(n - 1)]);
                    w.st_global(&arena, &didx, v, m);
                });
            });
        }
        self.stats.installs += added.len() as u64;
        self.stats.evictions += evicted;
        self.resident = new_set;
        self.resident_words = words;
        self.arena = Some(arena);
    }
}

/// The slice of tuning state a kernel launch needs: the geometry knobs and
/// the resident-transit set. A borrow into the session's plan and cache,
/// rebuilt per step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelTuning<'a> {
    pub preload_factor: usize,
    pub block_dim: usize,
    pub resident: &'a [VertexId],
}

impl KernelTuning<'static> {
    /// The untuned engine's geometry: what every non-session entry point
    /// uses.
    pub(crate) fn baseline() -> Self {
        KernelTuning {
            preload_factor: 4,
            block_dim: 1024,
            resident: &[],
        }
    }
}

impl<'a> KernelTuning<'a> {
    /// Builds the per-launch view of a plan and optional cache.
    pub(crate) fn from_plan(plan: &TuningPlan, resident: &'a [VertexId]) -> Self {
        KernelTuning {
            preload_factor: plan.preload_factor,
            block_dim: plan.block_dim,
            resident,
        }
    }

    /// Whether `transit`'s adjacency is arena-resident (preloads can be
    /// skipped).
    #[inline]
    pub(crate) fn is_resident(&self, transit: VertexId) -> bool {
        self.resident.binary_search(&transit).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_baseline() {
        let p = TuningPlan::default();
        assert!(p.is_baseline());
        assert_eq!(p, p.normalized());
    }

    #[test]
    fn normalized_restores_invariants() {
        let p = TuningPlan {
            sub_warp_threshold: 0,
            max_block_threads: 9999,
            block_dim: 33,
            preload_factor: usize::MAX,
            tight_key_range: false,
            step_engine: StepEngine::Auto,
        }
        .normalized();
        assert_eq!(p.sub_warp_threshold, 1);
        assert_eq!(p.block_dim, 32);
        assert_eq!(p.max_block_threads, 32);
        assert_eq!(p.preload_factor, 64);
        assert_eq!(p.step_engine, StepEngine::Auto, "every engine is valid");
    }

    #[test]
    fn tuner_stays_baseline_until_warm() {
        let spec = GpuSpec::small();
        let mut t = AutoTuner::new(TunerConfig::default());
        assert!(t.plan(&spec).is_baseline());
        let s = ProfileSummary {
            total_ms: 10.0,
            scheduling_ms: 5.0,
            runs: 1,
            ..ProfileSummary::default()
        };
        t.observe_summary(&s);
        assert!(!t.ready());
        assert!(t.plan(&spec).is_baseline());
        t.observe_summary(&s);
        assert!(t.ready());
        let p = t.plan(&spec);
        assert!(p.tight_key_range, "half the time is scheduling");
        assert_eq!(p.block_dim, 1024, "no block/grid evidence");
        assert_eq!(p.step_engine, StepEngine::Auto, "a ready plan runs Auto");
    }

    #[test]
    fn sample_parallel_time_does_not_dilute_the_knob_shares() {
        // Steps routed around the index are no evidence about it: adding
        // their sample-parallel and transit time leaves both shares where
        // they were, so an Auto session does not drift back to the
        // baseline knobs however many such steps it runs.
        let nextdoor_only = ProfileSummary {
            total_ms: 10.0,
            scheduling_ms: 4.0,
            grid_ms: 5.0,
            runs: 1,
            ..ProfileSummary::default()
        };
        let with_sp = ProfileSummary {
            total_ms: 1510.0,
            sample_parallel_ms: 1000.0,
            ..nextdoor_only
        };
        assert_eq!(with_sp.scheduling_share(), nextdoor_only.scheduling_share());
        assert_eq!(with_sp.block_grid_share(), nextdoor_only.block_grid_share());
        let mut t = AutoTuner::new(TunerConfig {
            warmup_queries: 1,
            ..TunerConfig::default()
        });
        t.observe_summary(&nextdoor_only);
        t.observe_summary(&with_sp);
        assert!((t.summary().sample_parallel_ms - 1000.0).abs() < 1e-9);
        assert!(t.plan(&GpuSpec::small()).tight_key_range);
    }

    #[test]
    fn tuner_halves_blocks_on_low_sm_utilization() {
        let spec = GpuSpec::small();
        let mut t = AutoTuner::new(TunerConfig {
            warmup_queries: 1,
            ..TunerConfig::default()
        });
        let s = ProfileSummary {
            total_ms: 10.0,
            grid_ms: 8.0,
            bg_sm_utilization: 0.2,
            bg_occupancy: 0.9,
            runs: 1,
            ..ProfileSummary::default()
        };
        t.observe_summary(&s);
        let p = t.plan(&spec);
        assert_eq!(p.block_dim, 512);
        assert_eq!(p.max_block_threads, 512);
    }

    #[test]
    fn kernel_report_parser_reads_the_writer_shape() {
        let json = r#"{
  "device": {"num_sms": 8, "clock_ghz": 1.38},
  "kernels": [
    {"name":"radix_histogram","launches":6,"cycles":1000.000,"ms":0.100000,"avg_occupancy":1.0000,"max_shared_mem_bytes":0,"counters":{"gld_requests":1,"multiprocessor_activity":80.00}},
    {"name":"nextdoor_grid","launches":2,"cycles":9000.000,"ms":0.900000,"avg_occupancy":0.5000,"max_shared_mem_bytes":4096,"counters":{"gld_requests":9,"multiprocessor_activity":25.00}},
    {"name":"sp_sample","launches":3,"cycles":2000.000,"ms":0.200000,"avg_occupancy":1.0000,"max_shared_mem_bytes":0,"counters":{"gld_requests":5,"multiprocessor_activity":90.00}}
  ],
  "transfers": {"count":0,"htod_bytes":0,"dtoh_bytes":0,"cycles":0.000}
}"#;
        let s = ProfileSummary::from_kernel_report_json(json).expect("parses");
        assert!((s.total_ms - 1.2).abs() < 1e-9);
        assert!((s.sample_parallel_ms - 0.2).abs() < 1e-9);
        assert!((s.scheduling_share() - 0.1).abs() < 1e-9);
        assert!((s.scheduling_ms - 0.1).abs() < 1e-9);
        assert!((s.grid_ms - 0.9).abs() < 1e-9);
        assert!((s.bg_sm_utilization - 0.25).abs() < 1e-9);
        assert!((s.bg_occupancy - 0.5).abs() < 1e-9);
        assert!(ProfileSummary::from_kernel_report_json("{}").is_err());
        assert!(ProfileSummary::from_kernel_report_json("{\"kernels\": ] [ }").is_err());
        assert!(ProfileSummary::from_kernel_report_json("{\"kernels\": [").is_err());
    }

    #[test]
    fn maintain_promotes_and_evicts_deterministically() {
        use nextdoor_graph::gen::{rmat, RmatParams};
        let g = rmat(6, 400, RmatParams::SKEWED, 3);
        let mut gpu = Gpu::new(GpuSpec::small());
        let gg = GpuGraph::upload(&mut gpu, &g).expect("graph fits");
        let mut cache = HotTransitCache::new(CacheConfig {
            min_hits: 1,
            max_entries: 2,
            ..CacheConfig::default()
        });
        let connected: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| g.degree(v) > 0)
            .take(3)
            .collect();
        assert_eq!(connected.len(), 3, "rmat graph has connected vertices");
        cache.freq.insert(connected[0], 5);
        cache.freq.insert(connected[1], 3);
        cache.freq.insert(connected[2], 1);
        cache.maintain(&mut gpu, &g, &gg);
        let mut want = [connected[0], connected[1]];
        want.sort_unstable();
        assert_eq!(cache.resident(), &want[..], "two hottest, ascending");
        assert_eq!(cache.stats().installs, 2);
        // A new hub overtakes: maintenance must evict to make room.
        cache.freq.insert(connected[2], 50);
        cache.freq.insert(connected[0], 40);
        cache.maintain(&mut gpu, &g, &gg);
        let mut want = [connected[2], connected[0]];
        want.sort_unstable();
        assert_eq!(cache.resident(), &want[..]);
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn maintenance_falls_back_under_memory_pressure() {
        use nextdoor_graph::gen::{rmat, RmatParams};
        let g = rmat(6, 400, RmatParams::SKEWED, 3);
        let mut gpu = Gpu::new(GpuSpec::small());
        let gg = GpuGraph::upload(&mut gpu, &g).expect("graph fits");
        let mut cache = HotTransitCache::new(CacheConfig {
            min_hits: 1,
            ..CacheConfig::default()
        });
        for v in 0..g.num_vertices() as VertexId {
            cache.freq.insert(v, 10);
        }
        // Exhaust device memory in shrinking chunks so the arena's own
        // allocation cannot succeed.
        let mut hold = Vec::new();
        for sz in [1usize << 18, 1 << 12, 1 << 6, 1] {
            while let Ok(b) = gpu.try_alloc::<u32>(sz) {
                hold.push(b);
            }
        }
        let _ = gpu.take_faults();
        cache.maintain(&mut gpu, &g, &gg);
        assert!(
            cache.stats().pressure_fallbacks >= 1,
            "fallback is typed and counted"
        );
        assert!(
            cache.resident().is_empty(),
            "no partial residency after a failed install"
        );
        assert!(
            gpu.take_faults().is_empty(),
            "the failed install does not leak fault records into the next query"
        );
        // With memory back, the next maintenance pass succeeds.
        drop(hold);
        cache.maintain(&mut gpu, &g, &gg);
        assert!(!cache.resident().is_empty());
    }

    /// k-hop sampling with per-step fan-outs, as GraphSAGE runs it.
    struct KHop(Vec<usize>);
    impl crate::api::SamplingApp for KHop {
        fn name(&self) -> &'static str {
            "k-hop"
        }
        fn steps(&self) -> crate::api::Steps {
            crate::api::Steps::Fixed(self.0.len())
        }
        fn sample_size(&self, step: usize) -> usize {
            self.0[step]
        }
        fn next(&self, ctx: &mut crate::api::NextCtx<'_>) -> Option<VertexId> {
            let d = ctx.num_edges();
            if d == 0 {
                return None;
            }
            let i = ctx.rand_range(d);
            Some(ctx.src_edge(i))
        }
    }

    #[test]
    fn auto_engine_picks_the_cheaper_kernel_per_step_on_reddit() {
        use crate::session::SamplerSession;
        use nextdoor_graph::Dataset;
        // The serving device: a 4-SM V100 slice with launch overhead 150.
        let mut spec = GpuSpec::v100();
        spec.num_sms = 4;
        spec.cost.launch_overhead = 150.0;
        let g = Dataset::Reddit.generate(0.005, 42);
        let nextdoor = TuningPlan {
            tight_key_range: true,
            ..TuningPlan::default()
        };
        let auto = TuningPlan {
            step_engine: StepEngine::Auto,
            ..nextdoor
        };
        // Which engine ran each step of an Auto query.
        let ran_sp = |r: &crate::RunResult| -> Vec<bool> {
            let phases = |s: &crate::StepProfile| s.kernels.iter().map(|k| k.phase).collect();
            let steps: Vec<Vec<KernelPhase>> = r.stats.profile.steps.iter().map(phases).collect();
            for p in &steps {
                let sp = p.contains(&KernelPhase::SampleParallel);
                assert_ne!(
                    sp,
                    p.contains(&KernelPhase::Scheduling),
                    "one engine per step"
                );
            }
            steps
                .iter()
                .map(|p| p.contains(&KernelPhase::SampleParallel))
                .collect()
        };
        for fanouts in [vec![10, 5], vec![25, 10]] {
            for samples in [32usize, 256, 2048] {
                let init = crate::initial_samples_random(&g, samples, 1, 3).expect("non-empty");
                let run = |plan: TuningPlan| {
                    let app = Box::new(KHop(fanouts.clone()));
                    let mut s = SamplerSession::new(spec.clone(), g.clone(), app).expect("fits");
                    s.set_tuning_plan(plan);
                    s.query(&init, 11).expect("valid query")
                };
                let (nd, au) = (run(nextdoor), run(auto));
                let case = format!("k-hop {fanouts:?} at {samples} samples");
                assert_eq!(nd.store.final_samples(), au.store.final_samples(), "{case}");
                assert!(
                    au.stats.total_ms <= nd.stats.total_ms,
                    "{case}: Auto is worse"
                );
                let engines = ran_sp(&au);
                if fanouts == [10, 5] && samples == 32 {
                    assert_eq!(engines, [true, true], "{case}: small steps skip the index");
                }
                if fanouts == [25, 10] && samples == 2048 {
                    assert!(!engines[1], "{case}: the large second step keeps the index");
                }
            }
        }
    }

    #[test]
    fn predictions_follow_the_launch_and_traffic_terms() {
        let spec = GpuSpec::small();
        // A handful of pairs: the index's dozen launches dominate.
        let (nd, sp) = predict_step_cycles(&spec, 32, 32, 10, 31, 1023);
        assert!(sp * 4.0 < nd, "{sp} vs {nd}");
        // Many lanes over few transits: the index's sharing wins.
        let (nd, sp) = predict_step_cycles(&spec, 1 << 20, 1 << 20, 16, 64, 1023);
        assert!(nd < sp, "{nd} vs {sp}");
        // A tighter key range sheds radix passes and never raises the
        // NextDoor prediction; more SMs never raise either prediction.
        let wide = predict_step_cycles(&spec, 5000, 5000, 4, 900, u32::MAX);
        let tight = predict_step_cycles(&spec, 5000, 5000, 4, 900, 1023);
        assert!(tight.0 < wide.0 && tight.1 == wide.1);
        let mut more = spec.clone();
        more.num_sms *= 2;
        let fast = predict_step_cycles(&more, 5000, 5000, 4, 900, 1023);
        assert!(fast.0 < tight.0 && fast.1 < tight.1);
    }

    #[test]
    fn cache_stats_hit_rate() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
