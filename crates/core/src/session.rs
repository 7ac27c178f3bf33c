//! Persistent sampling sessions: upload once, query many times.
//!
//! The paper's end-to-end win comes from amortising GPU state across
//! sampling invocations — NextDoor keeps the graph resident on the device
//! and answers sampling requests from a training loop rather than paying
//! setup per call (§8, Table 1). The one-shot `run_*` entry points re-upload
//! the graph and rebuild everything per call; a [`SamplerSession`] uploads
//! the graph and the per-app constant state once and then answers many
//! *queries* (caller-supplied seed sets) against the resident graph.
//!
//! Sessions also support **fused** execution: several queries are
//! concatenated into one store and run as a single transit-parallel batch,
//! which is how the micro-batching scheduler of `nextdoor-serve` coalesces
//! concurrent requests. Fused execution is bit-identical to running each
//! query alone because the engines key every RNG draw through a
//! [`SampleKeys`] table mapping each fused sample back to the
//! `(seed, local id)` pair of its standalone run.
//!
//! ```
//! use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
//! use nextdoor_core::session::{SamplerSession, SessionQuery};
//! use nextdoor_core::{initial_samples_random, run_nextdoor};
//! use nextdoor_gpu::{Gpu, GpuSpec};
//! use nextdoor_graph::gen::{rmat, RmatParams};
//!
//! struct Walk;
//! impl SamplingApp for Walk {
//!     fn name(&self) -> &'static str { "walk" }
//!     fn steps(&self) -> Steps { Steps::Fixed(3) }
//!     fn sample_size(&self, _step: usize) -> usize { 1 }
//!     fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
//!         let d = ctx.num_edges();
//!         if d == 0 { return None; }
//!         let i = ctx.rand_range(d);
//!         Some(ctx.src_edge(i))
//!     }
//! }
//!
//! let graph = rmat(8, 1200, RmatParams::SKEWED, 1);
//! let init = initial_samples_random(&graph, 16, 1, 3).expect("non-empty graph");
//!
//! // Warm session: the graph is uploaded once...
//! let mut session = SamplerSession::new(GpuSpec::small(), graph.clone(), Box::new(Walk))
//!     .expect("graph fits on the device");
//! let warm = session.query(&init, 42).expect("valid query");
//!
//! // ...and produces exactly the samples a cold one-shot run produces.
//! let mut gpu = Gpu::new(GpuSpec::small());
//! let cold = run_nextdoor(&mut gpu, &graph, &Walk, &init, 42).unwrap();
//! assert_eq!(warm.store.final_samples(), cold.store.final_samples());
//!
//! // Fused: two queries in one launch, sliced back per request.
//! let q = |seed| SessionQuery { init: init.clone(), seed };
//! let fused = session.query_fused(&[q(42), q(43)]).expect("compatible queries");
//! assert_eq!(fused.per_query[0].final_samples(), cold.store.final_samples());
//! ```

use crate::api::SamplingApp;
use crate::engine::driver::{finish_run, run_step_loop, GpuEngineKind, StepLoopOut};
use crate::engine::profile::RunProfile;
use crate::engine::{EngineStats, RunResult, SampleKeys};
use crate::error::{validate_run, FaultReport, NextDoorError};
use crate::gpu_graph::GpuGraph;
use crate::store::SampleStore;
use crate::tuning::{AutoTuner, CacheConfig, CacheStats, HotTransitCache, TunerConfig, TuningPlan};
use nextdoor_gpu::{Gpu, GpuSpec};
use nextdoor_graph::{Csr, VertexId};

/// One sampling request against a session: the initial samples (seed sets)
/// to grow and the RNG seed keying every draw of the query.
#[derive(Debug, Clone)]
pub struct SessionQuery {
    /// Initial vertices of each sample (all samples must have equal width).
    pub init: Vec<Vec<VertexId>>,
    /// Seed of the query's RNG streams. Two queries with the same
    /// `(init, seed)` produce identical samples, fused or not.
    pub seed: u64,
}

/// One width class of a fused batch: the queries sharing an initial width,
/// concatenated into one store whose [`SampleKeys`] map every fused sample
/// back to its query's `(seed, local id)`. That keying is what makes each
/// query's slice bit-identical to its standalone run.
pub(crate) struct WidthClass {
    /// Initial vertices per sample shared by the class's queries.
    pub width: usize,
    /// Submission-order indices of the class's queries.
    pub members: Vec<usize>,
    /// The members' initial samples, concatenated in member order.
    pub init: Vec<Vec<VertexId>>,
    /// Per-sample RNG keys of `init`.
    pub keys: SampleKeys,
}

impl WidthClass {
    /// Validates every query and groups the batch into width classes in
    /// order of first appearance.
    pub(crate) fn split(
        graph: &Csr,
        app: &dyn SamplingApp,
        queries: &[SessionQuery],
    ) -> Result<Vec<WidthClass>, NextDoorError> {
        if queries.is_empty() {
            return Err(NextDoorError::EmptyInit);
        }
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            validate_run(graph, app, &q.init)?;
            let width = q.init[0].len();
            match groups.iter_mut().find(|(w, _)| *w == width) {
                Some((_, members)) => members.push(qi),
                None => groups.push((width, vec![qi])),
            }
        }
        let classes = groups.into_iter().map(|(width, members)| {
            let qs = members.iter().map(|&qi| &queries[qi]);
            let init = qs.clone().flat_map(|q| q.init.iter().cloned()).collect();
            let map = qs
                .flat_map(|q| (0..q.init.len() as u64).map(move |local| (q.seed, local)))
                .collect();
            WidthClass {
                width,
                members,
                init,
                keys: SampleKeys::fused(map),
            }
        });
        Ok(classes.collect())
    }

    /// Slices the class's result `store` back into `per_query`, at each
    /// member's submission index.
    pub(crate) fn scatter(
        &self,
        queries: &[SessionQuery],
        store: &SampleStore,
        per_query: &mut [Option<SampleStore>],
    ) {
        let mut start = 0;
        for &qi in &self.members {
            let len = queries[qi].init.len();
            per_query[qi] = Some(store.slice(start, len));
            start += len;
        }
    }
}

/// Where one width class of a fused batch landed on the device: its launch
/// indices and simulated-cycle interval. Surfaced so the serving tier's
/// tracer can record a span per class launch sequence and link it to the
/// kernel records the device profiler retained (kernels are addressed by
/// [`launch_idx`](nextdoor_gpu::KernelRecord::launch_idx)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMark {
    /// Initial vertices per sample shared by the class's queries.
    pub width: usize,
    /// Queries fused into this class.
    pub queries: usize,
    /// First device launch index of the class (inclusive).
    pub launch_start: u64,
    /// One past the class's last device launch index.
    pub launch_end: u64,
    /// Device-clock cycles at which the class's launch sequence began.
    pub start_cycles: f64,
    /// Device-clock cycles at which the class's launch sequence ended.
    pub end_cycles: f64,
}

/// Result of a fused batch: one sliced store per query, in submission
/// order, plus the batch-level statistics and fault report shared by all
/// of them (the batch ran as one dispatch, so its cost cannot be
/// attributed to a single query).
pub struct FusedResult {
    /// Per-query sample stores, bit-identical to each query's standalone
    /// run.
    pub per_query: Vec<SampleStore>,
    /// Fused launch sequences the batch needed: one per *width class*
    /// (distinct initial-vertices-per-sample count among the queries). An
    /// equal-width batch runs as a single sequence.
    pub launches: usize,
    /// Launch-index and cycle bracket of each width class's launch
    /// sequence, in the same first-appearance order the classes ran.
    pub class_marks: Vec<ClassMark>,
    /// Statistics of the fused batch as a whole (all width classes
    /// combined).
    pub stats: EngineStats,
    /// Faults the fused batch observed and survived.
    pub report: FaultReport,
}

/// A persistent sampling session: a device with the graph resident, bound
/// to one sampling application, answering many queries without re-upload.
///
/// Created with [`SamplerSession::new`] (fresh device) or
/// [`SamplerSession::with_gpu`] (caller-configured device, e.g. with an
/// injected [`FaultPlan`](nextdoor_gpu::FaultPlan)). Queries run the
/// NextDoor transit-parallel engine against the uploaded graph; the
/// session's simulated clock ([`SamplerSession::sim_ms`]) accumulates
/// across queries, which is what the serving layer's per-request deadlines
/// are measured against.
pub struct SamplerSession {
    gpu: Gpu,
    graph: Csr,
    gg: GpuGraph,
    app: Box<dyn SamplingApp + Send>,
    queries_served: u64,
    tuner: Option<AutoTuner>,
    plan: TuningPlan,
    plan_updates: u64,
    cache: Option<HotTransitCache>,
}

impl SamplerSession {
    /// Creates a session on a fresh device of `spec`, uploading `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`NextDoorError::EmptyGraph`] for a vertex-less graph and
    /// [`NextDoorError::OutOfMemory`] when the graph does not fit in device
    /// memory (a session keeps the graph resident, so unlike the one-shot
    /// [`run_nextdoor`](crate::run_nextdoor) it does not degrade to the
    /// out-of-core engine).
    pub fn new(
        spec: GpuSpec,
        graph: Csr,
        app: Box<dyn SamplingApp + Send>,
    ) -> Result<Self, NextDoorError> {
        Self::with_gpu(Gpu::new(spec), graph, app)
    }

    /// Creates a session on a caller-configured device (fault plans,
    /// profile capacity and thread counts are all set on the `Gpu` before
    /// it is handed over).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SamplerSession::new`].
    pub fn with_gpu(
        mut gpu: Gpu,
        graph: Csr,
        app: Box<dyn SamplingApp + Send>,
    ) -> Result<Self, NextDoorError> {
        if graph.num_vertices() == 0 {
            return Err(NextDoorError::EmptyGraph);
        }
        if gpu.device_lost() {
            return Err(NextDoorError::DeviceLost { device: 0 });
        }
        let gg = GpuGraph::upload(&mut gpu, &graph)?;
        Ok(SamplerSession {
            gpu,
            graph,
            gg,
            app,
            queries_served: 0,
            tuner: None,
            plan: TuningPlan::default(),
            plan_updates: 0,
            cache: None,
        })
    }

    /// Enables profile-guided autotuning: the session observes each
    /// completed query's [`RunProfile`] and, once `cfg.warmup_queries`
    /// queries have been seen, derives a [`TuningPlan`] that subsequent
    /// queries run under. Plans change only **at query boundaries** and the
    /// knobs only move launch geometry and cost, so the samples of every
    /// query are bit-identical to an untuned session's (see
    /// [`crate::tuning`]).
    pub fn enable_autotune(&mut self, cfg: TunerConfig) {
        self.tuner = Some(AutoTuner::new(cfg));
    }

    /// Enables the cross-query [`HotTransitCache`]: frequently-hit
    /// transits' adjacency slices stay resident on the device between
    /// queries, so their kernels skip the preload traffic. Maintenance runs
    /// at query boundaries; samples are unaffected.
    pub fn enable_hot_cache(&mut self, cfg: CacheConfig) {
        self.cache = Some(HotTransitCache::new(cfg));
    }

    /// Pins an explicit tuning plan (normalised via
    /// [`TuningPlan::normalized`]), e.g. one derived offline from an
    /// exported kernel report. Overwritten by the autotuner's next update
    /// if autotuning is enabled.
    pub fn set_tuning_plan(&mut self, plan: TuningPlan) {
        self.plan = plan.normalized();
    }

    /// The plan the next query will run under.
    pub fn tuning_plan(&self) -> TuningPlan {
        self.plan
    }

    /// How many times the autotuner changed the active plan.
    pub fn plan_updates(&self) -> u64 {
        self.plan_updates
    }

    /// The autotuner's state, if autotuning is enabled.
    pub fn tuner(&self) -> Option<&AutoTuner> {
        self.tuner.as_ref()
    }

    /// The hot-transit cache's counters, if the cache is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| *c.stats())
    }

    /// How many transits are currently resident in the hot-transit cache's
    /// device arena (0 when the cache is disabled or empty).
    pub fn cache_resident_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.resident().len())
    }

    /// Query-boundary bookkeeping: feed the tuner, refresh the plan, and
    /// let the cache promote/evict. Runs with no query in flight, so the
    /// next query sees one fixed `(plan, cache)` state throughout.
    fn after_query(&mut self, profile: &RunProfile) {
        if let Some(t) = self.tuner.as_mut() {
            t.observe(profile);
            if t.ready() {
                let new_plan = t.plan(self.gpu.spec()).normalized();
                if new_plan != self.plan {
                    self.plan = new_plan;
                    self.plan_updates += 1;
                }
            }
        }
        if let Some(c) = self.cache.as_mut() {
            c.maintain(&mut self.gpu, &self.graph, &self.gg);
        }
    }

    /// Answers one query against the resident graph: a fused batch of one
    /// through [`SamplerSession::query_fused`].
    ///
    /// Produces exactly the samples a cold one-shot
    /// [`run_nextdoor`](crate::run_nextdoor) call with the same
    /// `(graph, app, init, seed)` produces — the session only removes the
    /// per-call upload, it never changes the samples.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_nextdoor`](crate::run_nextdoor), minus the
    /// upload paths (the graph is already resident).
    pub fn query(&mut self, init: &[Vec<VertexId>], seed: u64) -> Result<RunResult, NextDoorError> {
        let q = SessionQuery {
            init: init.to_vec(),
            seed,
        };
        let mut fused = self.query_fused(&[q])?;
        Ok(RunResult {
            // A batch of one slices back into exactly one store.
            store: fused.per_query.swap_remove(0),
            stats: fused.stats,
            report: fused.report,
        })
    }

    /// Runs several queries as **one fused transit-parallel batch** and
    /// slices the results back per query.
    ///
    /// The fused batch produces, for every query, samples bit-identical to
    /// running that query alone via [`SamplerSession::query`] — the engines
    /// key each fused sample's RNG by its query's `(seed, local id)` (see
    /// [`SampleKeys`]). Fusing amortises the per-launch fixed costs
    /// (scheduling index, kernel launch overhead) across queries, which is
    /// the serving layer's throughput lever.
    ///
    /// Queries need **not** share one initial width: the step planner sizes
    /// the shared transit array from a single vertices-per-sample count, so
    /// the batch is partitioned into *width classes* (in order of first
    /// appearance) and each class runs as its own fused launch sequence
    /// ([`FusedResult::launches`] counts them). Per-sample RNG keying makes
    /// every class bit-identical to standalone runs regardless of how the
    /// classes are packed; [`FusedResult::stats`] and the fault report
    /// cover all classes combined.
    ///
    /// # Errors
    ///
    /// Returns [`NextDoorError::EmptyInit`] for an empty batch and any
    /// [`validate_run`] error for an individual query. Runtime errors are
    /// as for [`SamplerSession::query`]; a runtime error in any width
    /// class fails the whole batch.
    pub fn query_fused(&mut self, queries: &[SessionQuery]) -> Result<FusedResult, NextDoorError> {
        let classes = WidthClass::split(&self.graph, self.app.as_ref(), queries)?;
        // One counter/launch snapshot brackets *all* classes, so the
        // aggregate stats and profile account for the whole batch exactly.
        let counters0 = *self.gpu.counters();
        let launch0 = self.gpu.launches_issued();
        let mut batch = StepLoopOut::empty();
        let mut per_query: Vec<Option<SampleStore>> = vec![None; queries.len()];
        let mut class_marks = Vec::with_capacity(classes.len());
        for class in &classes {
            // Bracket the class's launch sequence so the serving tracer can
            // address its kernel records by launch index.
            let class_launch0 = self.gpu.launches_issued();
            let class_cycles0 = self.gpu.counters().cycles;
            let out = run_step_loop(
                &mut self.gpu,
                &self.graph,
                &self.gg,
                self.app.as_ref(),
                &class.init,
                &class.keys,
                GpuEngineKind::NextDoor,
                None,
                &self.plan,
                self.cache.as_mut(),
            )?;
            class_marks.push(ClassMark {
                width: class.width,
                queries: class.members.len(),
                launch_start: class_launch0,
                launch_end: self.gpu.launches_issued(),
                start_cycles: class_cycles0,
                end_cycles: self.gpu.counters().cycles,
            });
            class.scatter(queries, &out.store, &mut per_query);
            batch.absorb(out);
        }
        self.queries_served += queries.len() as u64;
        let RunResult { stats, report, .. } = finish_run(&self.gpu, &counters0, launch0, batch);
        self.after_query(&stats.profile);
        Ok(FusedResult {
            per_query: per_query.into_iter().flatten().collect(),
            launches: classes.len(),
            class_marks,
            stats,
            report,
        })
    }

    /// Simulated milliseconds the session's device has accumulated across
    /// all queries so far. The serving layer measures per-request latency
    /// and deadlines on this clock.
    pub fn sim_ms(&self) -> f64 {
        self.gpu.spec().cycles_to_ms(self.gpu.counters().cycles)
    }

    /// Queries answered so far (each fused query counts individually).
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// The resident graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The application this session serves.
    pub fn app(&self) -> &dyn SamplingApp {
        self.app.as_ref()
    }

    /// Device bytes occupied by the resident graph.
    pub fn graph_bytes(&self) -> usize {
        self.gg.size_bytes()
    }

    /// Schedules additional faults **relative to now**: every allocation
    /// and launch index in `plan` is shifted by the device's current
    /// monotonic counters and merged into the installed plan, so a script
    /// like "lose the device on the 3rd launch from here" lands mid-stream
    /// regardless of how much traffic the session has already served. This
    /// is the chaos-harness entry point for per-replica fault scheduling.
    pub fn schedule_faults(&mut self, plan: nextdoor_gpu::FaultPlan) {
        let shifted = plan.shifted(self.gpu.allocs_issued(), self.gpu.launches_issued());
        self.gpu.extend_faults(shifted);
    }

    /// Whether the session's device has been lost. A lost session can no
    /// longer answer queries ([`SamplerSession::query`] returns
    /// [`NextDoorError::DeviceLost`]); a replica pool routes around it.
    pub fn device_lost(&self) -> bool {
        self.gpu.device_lost()
    }

    /// The session's device (counters, profile ring, launch index).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Mutable access to the session's device, e.g. to inject a
    /// [`FaultPlan`](nextdoor_gpu::FaultPlan) or resize the profile ring
    /// between queries.
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, Steps};
    use crate::engine::nextdoor::run_nextdoor;
    use nextdoor_graph::gen::{rmat, RmatParams};

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

    fn workload() -> (Csr, Vec<Vec<u32>>) {
        let g = rmat(8, 2000, RmatParams::SKEWED, 3);
        let init: Vec<Vec<u32>> = (0..24).map(|i| vec![i * 5 % 256]).collect();
        (g, init)
    }

    #[test]
    fn warm_queries_match_cold_runs() {
        let (g, init) = workload();
        let mut session =
            SamplerSession::new(GpuSpec::small(), g.clone(), Box::new(Walk(6))).unwrap();
        for seed in [7u64, 8, 9] {
            let warm = session.query(&init, seed).unwrap();
            let mut gpu = Gpu::new(GpuSpec::small());
            let cold = run_nextdoor(&mut gpu, &g, &Walk(6), &init, seed).unwrap();
            assert_eq!(warm.store.final_samples(), cold.store.final_samples());
        }
        assert_eq!(session.queries_served(), 3);
        assert!(session.sim_ms() > 0.0);
        assert!(session.graph_bytes() > 0);
    }

    #[test]
    fn fused_batch_matches_per_query_runs() {
        let (g, init) = workload();
        let mut session =
            SamplerSession::new(GpuSpec::small(), g.clone(), Box::new(Walk(5))).unwrap();
        let queries: Vec<SessionQuery> = (0..3)
            .map(|i| SessionQuery {
                init: init[i * 8..(i + 1) * 8].to_vec(),
                seed: 100 + i as u64,
            })
            .collect();
        let fused = session.query_fused(&queries).unwrap();
        assert_eq!(fused.per_query.len(), 3);
        assert_eq!(fused.launches, 1, "equal widths fuse into one sequence");
        for (q, sliced) in queries.iter().zip(&fused.per_query) {
            let solo = session.query(&q.init, q.seed).unwrap();
            assert_eq!(sliced.final_samples(), solo.store.final_samples());
        }
        assert!(fused.report.is_clean());
    }

    #[test]
    fn mixed_width_fused_batch_matches_per_query_runs() {
        // Queries of different initial widths share one fused dispatch:
        // the session splits them into width classes (one launch sequence
        // each) and every query still reproduces its standalone samples.
        let (g, _) = workload();
        let mut session =
            SamplerSession::new(GpuSpec::small(), g.clone(), Box::new(Walk(4))).unwrap();
        let queries: Vec<SessionQuery> = [1usize, 2, 1, 3, 2]
            .iter()
            .enumerate()
            .map(|(i, &w)| SessionQuery {
                init: (0..6).map(|s| vec![(s * 7 + i as u32) % 200; w]).collect(),
                seed: 500 + i as u64,
            })
            .collect();
        let fused = session.query_fused(&queries).unwrap();
        assert_eq!(fused.per_query.len(), queries.len());
        assert_eq!(fused.launches, 3, "widths {{1,2,3}} form three classes");
        for (q, sliced) in queries.iter().zip(&fused.per_query) {
            let solo = SamplerSession::new(GpuSpec::small(), g.clone(), Box::new(Walk(4)))
                .unwrap()
                .query(&q.init, q.seed)
                .unwrap();
            assert_eq!(sliced.final_samples(), solo.store.final_samples());
            for s in 0..sliced.num_samples() {
                assert_eq!(sliced.edges_of(s), solo.store.edges_of(s));
            }
        }
        assert!(fused.stats.total_ms > 0.0);
        assert!(fused.report.is_clean());
        assert!(matches!(
            session.query_fused(&[]).err(),
            Some(NextDoorError::EmptyInit)
        ));
    }

    #[test]
    fn single_query_equals_fused_batch_of_one() {
        // A tuned, cached session under a scheduled transient fault: the
        // single-query path and a fused batch of one must agree on the
        // samples, the whole stats block and the fault report, round by
        // round, while the plan and cache evolve between rounds.
        let (g, init) = workload();
        let mk = || {
            let mut s =
                SamplerSession::new(GpuSpec::small(), g.clone(), Box::new(Walk(6))).unwrap();
            s.enable_autotune(TunerConfig {
                warmup_queries: 1,
                ..TunerConfig::default()
            });
            s.enable_hot_cache(CacheConfig {
                min_hits: 1,
                ..CacheConfig::default()
            });
            s.schedule_faults(nextdoor_gpu::FaultPlan::new().transient_at_launch(2));
            s
        };
        let (mut single, mut fused) = (mk(), mk());
        let mut faults_seen = 0;
        for round in 0..3u64 {
            let seed = 60 + round;
            let a = single.query(&init, seed).unwrap();
            let q = SessionQuery {
                init: init.clone(),
                seed,
            };
            let b = fused.query_fused(&[q]).unwrap();
            assert_eq!(b.per_query.len(), 1);
            assert_eq!(
                a.store.final_samples(),
                b.per_query[0].final_samples(),
                "round {round}"
            );
            assert_eq!(
                format!("{:?}", a.stats),
                format!("{:?}", b.stats),
                "round {round}"
            );
            assert_eq!(a.report, b.report, "round {round}");
            faults_seen += a.report.transient_faults;
        }
        assert!(faults_seen > 0, "the scheduled fault fired");
        assert_eq!(single.tuning_plan(), fused.tuning_plan());
        assert_eq!(single.cache_stats(), fused.cache_stats());
    }

    #[test]
    fn scheduled_faults_land_relative_to_current_traffic() {
        let (g, init) = workload();
        let mut session = SamplerSession::new(GpuSpec::small(), g, Box::new(Walk(4))).unwrap();
        session.query(&init, 1).unwrap(); // traffic behind us
        assert!(!session.device_lost());
        // "Lose the device at the next launch", scheduled after the fact.
        session.schedule_faults(nextdoor_gpu::FaultPlan::new().lose_device_at_launch(0));
        assert!(matches!(
            session.query(&init, 2),
            Err(NextDoorError::DeviceLost { .. })
        ));
        assert!(session.device_lost());
    }

    #[test]
    fn session_rejects_oversized_graph() {
        let mut spec = GpuSpec::small();
        spec.device_memory = 64;
        let (g, _) = workload();
        assert!(matches!(
            SamplerSession::new(spec, g, Box::new(Walk(1))).err(),
            Some(NextDoorError::OutOfMemory(_))
        ));
    }
}
