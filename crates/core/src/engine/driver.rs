//! The step attempt every placement runs: one kernel sequence and one
//! retry discipline.
//!
//! The engines differ only in how each step's `next` invocations are
//! scheduled onto the GPU ([`exec_step`]); everything else — transit
//! planning, collective neighbourhood semantics, uniqueness, termination,
//! fault recovery — is common and lives in [`run_step_loop`], so that the
//! engines are directly comparable (and provably produce identical
//! samples). The out-of-GPU-memory mode (§8.4) reuses the same loop with a
//! residency descriptor that charges per-step sub-graph transfers. The
//! sharded sampler ([`crate::sharded`]) plans each super-step globally but
//! runs every shard's slice of it through the same [`exec_step`] inside the
//! same [`retry_step`], so a placement changes where pairs execute, never
//! the kernels or the fault handling.
//!
//! # Fault recovery
//!
//! Device faults (injected via [`nextdoor_gpu::FaultPlan`] or real) surface
//! through two channels: fallible allocations return `Err(OutOfMemory)`, and
//! kernel launches record [`nextdoor_gpu::FaultEvent`]s drained with
//! `take_faults()`. [`retry_step`] drains events at step granularity: a step
//! whose execution observed any fault discards its outputs and re-executes —
//! sound because the sampling RNG is counter-based, keyed by
//! `(seed, sample, step, slot)`, so a re-run is bit-identical. A step still
//! faulting after [`MAX_STEP_RETRIES`] retries fails the run with
//! [`NextDoorError::KernelFault`]; device loss is never retried locally and
//! surfaces as [`NextDoorError::DeviceLost`] for the multi-GPU layer to
//! fail over. An upload that does not fit degrades the NextDoor engine to
//! the out-of-core engine instead of failing.

use crate::api::{SamplingApp, SamplingType, NULL_VERTEX};
use crate::engine::collective::{
    build_combined_sample_parallel, build_combined_transit_parallel, prepare_combined,
    run_collective_next_kernel,
};
use crate::engine::kernels::{
    block_class_work, charge_step_transits, grid_class_work, run_sample_parallel_kernel,
    run_subwarp_kernel, run_transit_block_kernel, BlockWork, StepExec, StepOut,
};
use crate::engine::scheduling::{build_scheduling_index, partition_kernel_classes};
use crate::engine::{
    finish_step, plan_step, step_budget, unique, EngineStats, RunResult, SampleKeys, StepPlan,
};
use crate::error::{FaultReport, NextDoorError};
use crate::gpu_graph::GpuGraph;
use crate::large_graph::GraphPartitions;
use crate::store::SampleStore;
use crate::tuning::{predict_step_cycles, HotTransitCache, KernelTuning, StepEngine, TuningPlan};
use nextdoor_gpu::{DeviceBuffer, Gpu, OutOfMemory};
use nextdoor_graph::{Csr, VertexId};

/// How many times a faulted step is re-executed before the run fails with
/// [`NextDoorError::KernelFault`].
pub(crate) const MAX_STEP_RETRIES: usize = 3;

/// Which parallelisation strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GpuEngineKind {
    /// Transit-parallel with scheduling index and three kernel classes.
    NextDoor,
    /// Fine-grained sample-parallel (the paper's SP baseline).
    SampleParallel,
    /// Vanilla transit-parallel: map inversion but one block per transit
    /// (the paper's TP baseline).
    VanillaTp,
}

/// Collects the live `(transit, pair_id)` pairs of a step.
pub(crate) fn live_pairs(plan: &StepPlan, num_samples: usize) -> Vec<(VertexId, u32)> {
    let mut pairs = Vec::with_capacity(num_samples * plan.tps);
    for s in 0..num_samples {
        for t in 0..plan.tps {
            let tv = plan.transits[s * plan.tps + t];
            if tv != NULL_VERTEX {
                pairs.push((tv, (s * plan.tps + t) as u32));
            }
        }
    }
    pairs
}

/// Executes one step's `next` invocations under `kind` over the live
/// pairs in `ex.pairs`, filling `out`. Returns the cycles spent building
/// the scheduling index.
///
/// `tuning` supplies the session's [`TuningPlan`] (the default plan
/// reproduces the untuned engine byte-identically) and `cache` the
/// session's [`HotTransitCache`], if any: the NextDoor engine consults it
/// for resident adjacency slices and feeds its transit frequencies. Under
/// [`StepEngine::Auto`] the NextDoor engine runs the sample-parallel kernel
/// for the individual steps [`sample_parallel_is_cheaper`] picks. Samples
/// are identical either way — the knobs move cost, never RNG draws.
///
/// # Errors
///
/// Returns [`OutOfMemory`] when a scheduling-stage device allocation fails
/// (genuinely or through a scripted fault); the step loop classifies the
/// failure and retries the step when the fault was injected.
pub(crate) fn exec_step(
    gpu: &mut Gpu,
    ex: &StepExec<'_>,
    kind: GpuEngineKind,
    transit_buf: &DeviceBuffer<u32>,
    tuning: &TuningPlan,
    mut cache: Option<&mut HotTransitCache>,
    out: &mut StepOut,
) -> Result<f64, OutOfMemory> {
    let (plan, pairs) = (ex.plan, ex.pairs);
    let mut sched_cycles = 0.0;
    match ex.app.sampling_type() {
        SamplingType::Individual => match kind {
            GpuEngineKind::NextDoor
                if tuning.step_engine == StepEngine::Auto
                    && sample_parallel_is_cheaper(gpu, ex, tuning.tight_key_range) =>
            {
                if let Some(c) = cache.as_deref_mut() {
                    c.note_index_skipped();
                }
                run_sample_parallel_kernel(gpu, ex, transit_buf, out);
            }
            GpuEngineKind::NextDoor => {
                let (sub_warp, max_block) = (tuning.sub_warp_threshold, tuning.max_block_threads);
                let c0 = gpu.counters().cycles;
                let nv = ex.graph.num_vertices();
                let index = build_scheduling_index(gpu, pairs, nv, tuning.tight_key_range)?;
                let classes = partition_kernel_classes(gpu, &index, plan.m, sub_warp, max_block)?;
                if let Some(c) = cache.as_deref_mut() {
                    c.note_index(&index);
                }
                sched_cycles += gpu.counters().cycles - c0;
                let resident = cache.as_deref().map_or(&[][..], |c| c.resident());
                let tune = KernelTuning::from_plan(tuning, resident);
                run_subwarp_kernel(gpu, ex, &index, &classes.sub_warp, &tune, out);
                let bw = block_class_work(&index, &classes.block);
                run_transit_block_kernel(gpu, "nextdoor_block", ex, &index, &bw, &tune, out);
                let gw = grid_class_work(&index, &classes.grid, plan.m, tuning.block_dim);
                run_transit_block_kernel(gpu, "nextdoor_grid", ex, &index, &gw, &tune, out);
            }
            GpuEngineKind::SampleParallel => {
                run_sample_parallel_kernel(gpu, ex, transit_buf, out);
            }
            GpuEngineKind::VanillaTp => {
                let c0 = gpu.counters().cycles;
                let index = build_scheduling_index(
                    gpu,
                    pairs,
                    ex.graph.num_vertices(),
                    tuning.tight_key_range,
                )?;
                sched_cycles += gpu.counters().cycles - c0;
                let bw: Vec<BlockWork> = (0..index.segments.len())
                    .map(|si| BlockWork {
                        seg: si,
                        pair_start: 0,
                        pair_count: index.segments[si].count,
                    })
                    .collect();
                let tune = KernelTuning::baseline();
                run_transit_block_kernel(gpu, "tp_block", ex, &index, &bw, &tune, out);
            }
        },
        SamplingType::Collective => {
            let mut comb = prepare_combined(gpu, ex);
            match kind {
                GpuEngineKind::NextDoor | GpuEngineKind::VanillaTp => {
                    let c0 = gpu.counters().cycles;
                    let index = build_scheduling_index(
                        gpu,
                        pairs,
                        ex.graph.num_vertices(),
                        tuning.tight_key_range,
                    )?;
                    sched_cycles += gpu.counters().cycles - c0;
                    build_combined_transit_parallel(gpu, ex, &index, &mut comb);
                }
                GpuEngineKind::SampleParallel => {
                    build_combined_sample_parallel(gpu, ex, &mut comb);
                }
            }
            run_collective_next_kernel(gpu, ex, &comb, out);
        }
    }
    Ok(sched_cycles)
}

/// The per-step choice of [`StepEngine::Auto`]: whether
/// [`predict_step_cycles`] predicts the sample-parallel kernel cheaper than
/// the scheduling index plus the three kernel classes. Only a step this
/// device runs whole qualifies: the sample-parallel kernel covers every
/// transit slot, so a shard's owned slice stays on the index.
fn sample_parallel_is_cheaper(gpu: &Gpu, ex: &StepExec<'_>, tight_key_range: bool) -> bool {
    if ex.pairs.len() != ex.plan.live {
        return false;
    }
    let mut transits: Vec<VertexId> = ex.pairs.iter().map(|&(t, _)| t).collect();
    transits.sort_unstable();
    transits.dedup();
    let max_key = match transits.last() {
        Some(&t) if tight_key_range => t,
        _ => (ex.graph.num_vertices() - 1) as u32,
    };
    let (slots, m, distinct) = (ex.plan.transits.len(), ex.plan.m, transits.len());
    let (nextdoor, sp) =
        predict_step_cycles(gpu.spec(), ex.pairs.len(), slots, m, distinct, max_key);
    sp < nextdoor
}

/// Classifies a fallible device allocation: `Ok(Some(_))` succeeded,
/// `Ok(None)` hit an injected fault (absorbed into `report`; retry the
/// operation), `Err(_)` is genuine memory exhaustion or device loss.
fn absorb_alloc_fault<T>(
    gpu: &mut Gpu,
    report: &mut FaultReport,
    res: Result<T, OutOfMemory>,
) -> Result<Option<T>, NextDoorError> {
    match res {
        Ok(v) => Ok(Some(v)),
        Err(oom) => {
            let events = gpu.take_faults();
            if events.is_empty() {
                // No fault event means the device is genuinely full.
                return Err(oom.into());
            }
            report.absorb(&events);
            if gpu.device_lost() {
                return Err(NextDoorError::DeviceLost { device: 0 });
            }
            Ok(None)
        }
    }
}

/// Charges one retry of `step` to `report`, or fails with
/// [`NextDoorError::KernelFault`] once [`MAX_STEP_RETRIES`] are spent.
fn spend_retry(
    retries: &mut usize,
    report: &mut FaultReport,
    step: usize,
) -> Result<(), NextDoorError> {
    if *retries >= MAX_STEP_RETRIES {
        return Err(NextDoorError::KernelFault {
            step,
            retries: *retries,
        });
    }
    *retries += 1;
    report.step_retries += 1;
    Ok(())
}

/// Runs `attempt` until one attempt completes without observing a fault,
/// charging each re-execution through [`spend_retry`].
///
/// A failed allocation is classified by [`absorb_alloc_fault`]; an attempt
/// that completed but left fault events on the device is discarded, since
/// its outputs cannot be trusted. Either way the step re-executes, which
/// is bit-identical because the RNG is keyed by
/// `(seed, sample, step, slot)`. Device loss returns
/// [`NextDoorError::DeviceLost`] and is never retried here.
pub(crate) fn retry_step<T>(
    gpu: &mut Gpu,
    report: &mut FaultReport,
    step: usize,
    mut attempt: impl FnMut(&mut Gpu) -> Result<T, OutOfMemory>,
) -> Result<T, NextDoorError> {
    let mut retries = 0usize;
    loop {
        let res = attempt(gpu);
        if let Some(v) = absorb_alloc_fault(gpu, report, res)? {
            let events = gpu.take_faults();
            if events.is_empty() {
                return Ok(v);
            }
            report.absorb(&events);
            if gpu.device_lost() {
                return Err(NextDoorError::DeviceLost { device: 0 });
            }
        }
        spend_retry(&mut retries, report, step)?;
    }
}

/// Uploads the initial frontier, retrying injected allocation faults as
/// step 0 through [`spend_retry`]. Unlike [`retry_step`] it leaves pending
/// launch-fault events on the device: those belong to the first step that
/// launches a kernel, not to the upload.
pub(crate) fn upload_frontier(
    gpu: &mut Gpu,
    report: &mut FaultReport,
    init_flat: &[u32],
) -> Result<DeviceBuffer<u32>, NextDoorError> {
    let mut retries = 0usize;
    loop {
        let res = gpu.try_to_device(init_flat);
        if let Some(buf) = absorb_alloc_fault(gpu, report, res)? {
            return Ok(buf);
        }
        spend_retry(&mut retries, report, 0)?;
    }
}

/// Everything [`run_step_loop`] produces besides what the caller derives
/// from the GPU counters.
pub(crate) struct StepLoopOut {
    pub store: SampleStore,
    pub sched_cycles: f64,
    pub transfer_cycles: f64,
    pub transfers: usize,
    pub steps_run: usize,
    pub report: FaultReport,
    /// Per executed step: `(step, first_launch, end_launch)` bracketing the
    /// step's kernel launches (retried attempts included) by the device's
    /// monotonic launch index, for the per-step profile breakdown.
    pub step_marks: Vec<(usize, u64, u64)>,
}

impl StepLoopOut {
    /// A zero accumulator for folding several loops (the width classes of
    /// a fused batch) with [`StepLoopOut::absorb`].
    pub(crate) fn empty() -> Self {
        StepLoopOut {
            store: SampleStore::new(Vec::new()),
            sched_cycles: 0.0,
            transfer_cycles: 0.0,
            transfers: 0,
            steps_run: 0,
            report: FaultReport::default(),
            step_marks: Vec::new(),
        }
    }

    /// Adds `other`'s cycles, steps, faults and step marks to this
    /// accumulator. `other`'s store is dropped: the caller slices it first.
    pub(crate) fn absorb(&mut self, other: StepLoopOut) {
        self.sched_cycles += other.sched_cycles;
        self.transfer_cycles += other.transfer_cycles;
        self.transfers += other.transfers;
        self.steps_run += other.steps_run;
        self.report.merge(&other.report);
        self.step_marks.extend(other.step_marks);
    }
}

/// The engine-independent, fault-tolerant step loop.
///
/// With `residency` set, the graph is assumed host-staged and each step
/// first transfers the sub-graphs holding live transits (out-of-core mode;
/// the caller must have enabled transfer charging). Transfers are charged
/// once per step: a retried attempt reuses the already-resident sub-graphs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_step_loop(
    gpu: &mut Gpu,
    graph: &Csr,
    gg: &GpuGraph,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    keys: &SampleKeys,
    kind: GpuEngineKind,
    residency: Option<&GraphPartitions>,
    tuning: &TuningPlan,
    mut cache: Option<&mut HotTransitCache>,
) -> Result<StepLoopOut, NextDoorError> {
    if gpu.device_lost() {
        return Err(NextDoorError::DeviceLost { device: 0 });
    }
    let mut report = FaultReport::default();
    let mut store = SampleStore::new(init.to_vec());
    let mut sched_cycles = 0.0;
    let mut transfer_cycles = 0.0;
    let mut transfers = 0usize;
    let mut steps_run = 0usize;
    let mut step_marks: Vec<(usize, u64, u64)> = Vec::new();
    let init_flat: Vec<u32> = init.iter().flatten().copied().collect();
    let mut prev_buf = upload_frontier(gpu, &mut report, &init_flat)?;
    for step in 0..step_budget(app) {
        let plan = plan_step(app, &store, step, keys);
        if plan.live == 0 {
            break;
        }
        if let Some(parts) = residency {
            // Which sub-graphs hold this step's transits?
            let mut needed: Vec<bool> = vec![false; parts.len()];
            for &t in &plan.transits {
                if t != NULL_VERTEX {
                    needed[parts.partition_of(t)] = true;
                }
            }
            let c0 = gpu.counters().cycles;
            for (p, used) in needed.iter().enumerate() {
                if *used {
                    gpu.charge_htod(parts.bytes_of(p));
                    transfers += 1;
                }
            }
            transfer_cycles += gpu.counters().cycles - c0;
        }
        let ns = store.num_samples();
        let pairs = live_pairs(&plan, ns);
        let ex = StepExec {
            graph,
            gg,
            app,
            store: &store,
            plan: &plan,
            pairs: &pairs,
            keys,
        };
        let step_launch0 = gpu.launches_issued();
        let out = retry_step(gpu, &mut report, step, |gpu| {
            let transit_buf = gpu.try_alloc::<u32>(ns * plan.tps)?;
            charge_step_transits(gpu, &prev_buf, &transit_buf, &plan.transits, plan.tps);
            let mut out = StepOut::try_new(gpu, ns, plan.slots)?;
            let cache = cache.as_deref_mut();
            sched_cycles += exec_step(gpu, &ex, kind, &transit_buf, tuning, cache, &mut out)?;
            if app.unique(step) {
                unique::dedup_values_gpu(gpu, &mut out.values, plan.slots, ns);
            }
            Ok(out)
        })?;
        let StepOut {
            values,
            edges,
            step_buf,
        } = out;
        let live_this_step = values.iter().any(|&v| v != NULL_VERTEX);
        finish_step(app, &mut store, &plan, values, edges);
        steps_run += 1;
        step_marks.push((step, step_launch0, gpu.launches_issued()));
        prev_buf = step_buf;
        if !live_this_step {
            break;
        }
    }
    Ok(StepLoopOut {
        store,
        sched_cycles,
        transfer_cycles,
        transfers,
        steps_run,
        report,
        step_marks,
    })
}

/// Folds a finished step loop into a [`RunResult`]: counter deltas since
/// `counters0`, the per-kernel profile of launches since `launch0`, and the
/// simulated-time breakdown. The one [`EngineStats`] fold, shared by
/// one-shot runs, out-of-core runs (which then split transfer time out of
/// `sampling_ms`) and the batches of a persistent
/// [`SamplerSession`](crate::session::SamplerSession), whose width classes
/// are first folded together with [`StepLoopOut::absorb`].
pub(crate) fn finish_run(
    gpu: &Gpu,
    counters0: &nextdoor_gpu::Counters,
    launch0: u64,
    out: StepLoopOut,
) -> RunResult {
    let counters = gpu.counters().diff(counters0);
    let profile = crate::engine::profile::RunProfile::from_device(gpu, launch0, &out.step_marks);
    let spec = gpu.spec();
    let total_ms = spec.cycles_to_ms(counters.cycles);
    let scheduling_ms = spec.cycles_to_ms(out.sched_cycles);
    RunResult {
        store: out.store,
        stats: EngineStats {
            total_ms,
            sampling_ms: total_ms - scheduling_ms,
            scheduling_ms,
            counters,
            steps_run: out.steps_run,
            profile,
        },
        report: out.report,
    }
}

/// Runs `app` to completion with the chosen engine on `gpu`, drawing
/// sample `s`'s random streams from `keys.key(s)`.
///
/// Validates inputs up front, recovers from transient faults by retrying
/// steps, and — for the NextDoor engine only — degrades to the out-of-core
/// engine when the graph upload does not fit in device memory. The samples
/// of a degraded run are byte-identical to an in-core run's. One-shot runs
/// pass [`SampleKeys::uniform`]; a multi-GPU slice passes its samples'
/// global indices, so it reproduces its slice of a single-device run.
pub(crate) fn run_gpu_engine(
    gpu: &mut Gpu,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    keys: &SampleKeys,
    kind: GpuEngineKind,
) -> Result<RunResult, NextDoorError> {
    crate::error::validate_run(graph, app, init)?;
    if gpu.device_lost() {
        return Err(NextDoorError::DeviceLost { device: 0 });
    }
    let counters0 = *gpu.counters();
    let launch0 = gpu.launches_issued();
    match GpuGraph::upload(gpu, graph) {
        Ok(gg) => {
            let out = run_step_loop(
                gpu,
                graph,
                &gg,
                app,
                init,
                keys,
                kind,
                None,
                &TuningPlan::default(),
                None,
            )?;
            Ok(finish_run(gpu, &counters0, launch0, out))
        }
        Err(oom) => {
            let mut report = FaultReport::default();
            report.absorb(&gpu.take_faults());
            if gpu.device_lost() {
                return Err(NextDoorError::DeviceLost { device: 0 });
            }
            if kind != GpuEngineKind::NextDoor {
                // The SP/TP baselines have no degraded mode.
                return Err(oom.into());
            }
            // Degrade to the out-of-core engine: stage the graph host-side
            // and keep half the device for graph residency, the rest for
            // sample buffers. Samples are unchanged; only time differs.
            report.degraded_to_out_of_core = true;
            let budget = (gpu.mem_capacity() / 2).max(1);
            let (mut res, _ooc) =
                crate::large_graph::out_of_core_run(gpu, graph, app, init, keys, budget)?;
            res.report.merge(&report);
            Ok(res)
        }
    }
}
