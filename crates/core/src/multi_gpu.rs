//! Multi-GPU sampling (paper §6.4, Figure 10) with device-loss failover.
//!
//! Graph sampling is embarrassingly parallel across samples, so NextDoor's
//! multi-GPU mode replicates the graph, partitions the samples into
//! contiguous slices — one per device — runs load balancing, scheduling
//! and the sampling kernels on each device independently, and collects the
//! outputs. The multi-GPU wall time is the slowest device's accumulated
//! time.
//!
//! A slice is a keyed slice of one run: sample `i` of the full input draws
//! its random streams from `(seed, i)` wherever it runs (see
//! [`SampleKeys`]). Concatenating the slices' samples therefore gives
//! exactly the samples of a single-device [`run_nextdoor`](crate::run_nextdoor)
//! on the full input, at any device count. The keys do not depend on the
//! device, so when a device is lost its slice re-runs on a survivor with
//! the same keys; steps completed on the lost device are unrecoverable
//! (its memory is gone), and the counter-based RNG makes the re-run
//! reproduce them.

use crate::api::SamplingApp;
use crate::engine::driver::{run_gpu_engine, GpuEngineKind};
use crate::engine::{EngineStats, RunResult, SampleKeys};
use crate::error::{validate_run, FaultReport, NextDoorError};
use nextdoor_gpu::{FaultPlan, Gpu, GpuSpec, Profile};
use nextdoor_graph::{Csr, VertexId};
use std::ops::Range;

/// Result of a multi-GPU sampling run.
pub struct MultiGpuResult {
    /// One result per sample slice, in slice order. Concatenating the
    /// stores gives the samples of a single-device run on the full input.
    /// Without failover, slice `i` ran on device `i`.
    pub per_gpu: Vec<RunResult>,
    /// Wall time of the run: the slowest device's accumulated total time.
    pub makespan_ms: f64,
    /// Aggregated fault report: per-slice faults plus device losses and
    /// failovers handled by this layer.
    pub report: FaultReport,
    /// Raw per-device kernel profiles (index = physical device), for
    /// multi-device trace export via
    /// [`write_chrome_trace`](nextdoor_gpu::write_chrome_trace). A lost
    /// device keeps the records it produced before dying.
    pub device_profiles: Vec<Profile>,
}

impl MultiGpuResult {
    /// Per-slice statistics.
    pub fn stats(&self) -> Vec<&EngineStats> {
        self.per_gpu.iter().map(|r| &r.stats).collect()
    }

    /// Total samples across all slices.
    pub fn total_samples(&self) -> usize {
        self.per_gpu.iter().map(|r| r.store.num_samples()).sum()
    }
}

/// Picks the least-loaded live device: among indices where `alive` is
/// `true`, the one with the smallest accumulated `load_ms`, ties broken
/// towards the lowest index. Returns `None` when nothing is alive.
///
/// This is the failover routing rule shared by the multi-GPU layer
/// (re-running a lost device's slice on a survivor) and the serving tier's
/// replica pool (routing a micro-batch around unhealthy replicas) — both
/// need the same deterministic "cheapest survivor" choice.
pub fn least_loaded_alive(alive: &[bool], load_ms: &[f64]) -> Option<usize> {
    (0..alive.len())
        .filter(|&d| alive[d])
        .min_by(|&a, &b| load_ms[a].total_cmp(&load_ms[b]).then(a.cmp(&b)))
}

/// Runs `app` across `num_gpus` simulated devices of identical `spec`,
/// partitioning `init` contiguously.
///
/// Each sample keeps its global index as its RNG key, so the concatenated
/// slices are bit-identical to [`run_nextdoor`](crate::run_nextdoor) on
/// the full `init` with the same `seed`; only the simulated time differs.
///
/// # Errors
///
/// Returns [`NextDoorError`] if `num_gpus` is zero or exceeds the number of
/// initial samples, on invalid initial samples, or when a slice fails for a
/// reason failover cannot mask (including [`NextDoorError::AllDevicesLost`]
/// once no survivor remains).
pub fn run_nextdoor_multi_gpu(
    spec: &GpuSpec,
    num_gpus: usize,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
) -> Result<MultiGpuResult, NextDoorError> {
    run_nextdoor_multi_gpu_with_faults(spec, num_gpus, graph, app, init, seed, &[])
}

/// [`run_nextdoor_multi_gpu`] with a per-device [`FaultPlan`]
/// (`fault_plans[d]` scripts device `d`; missing entries mean no faults).
///
/// This is the fault-injection entry point: scripted device losses exercise
/// the failover path, and per-device allocation or launch faults flow into
/// the aggregated [`FaultReport`]. A slice that degrades to out-of-core or
/// fails over keeps its keys, so its samples do not change.
///
/// # Errors
///
/// Same conditions as [`run_nextdoor_multi_gpu`].
pub fn run_nextdoor_multi_gpu_with_faults(
    spec: &GpuSpec,
    num_gpus: usize,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
    fault_plans: &[FaultPlan],
) -> Result<MultiGpuResult, NextDoorError> {
    if num_gpus == 0 {
        return Err(NextDoorError::NoGpus);
    }
    if num_gpus > init.len() {
        return Err(NextDoorError::TooManyGpus {
            gpus: num_gpus,
            samples: init.len(),
        });
    }
    validate_run(graph, app, init)?;
    let mut gpus: Vec<Gpu> = (0..num_gpus)
        .map(|d| {
            let mut gpu = Gpu::new(spec.clone());
            if let Some(plan) = fault_plans.get(d) {
                if !plan.is_empty() {
                    gpu.inject_faults(plan.clone());
                }
            }
            gpu
        })
        .collect();
    // Slice `lo..hi` keys each sample by its global index. Rounding the
    // slice size up may leave the last devices without a slice.
    let per = init.len().div_ceil(num_gpus);
    let slices: Vec<Range<usize>> = (0..init.len())
        .step_by(per)
        .map(|lo| lo..(lo + per).min(init.len()))
        .collect();
    let run = |gpu: &mut Gpu, slice: &Range<usize>| {
        let keys = SampleKeys::fused(slice.clone().map(|i| (seed, i as u64)).collect());
        let init = &init[slice.clone()];
        run_gpu_engine(gpu, graph, app, init, &keys, GpuEngineKind::NextDoor)
    };
    // First wave: slice `i` runs on device `i`. Real hardware runs the
    // devices concurrently, so with more than one host worker thread each
    // device gets its own host thread (its launches may also use the
    // intra-launch worker pool); otherwise the wave runs inline in slice
    // order. Each device executes exactly its own slice during the wave —
    // failover re-runs happen strictly afterwards — and all accounting is
    // folded in slice order below, so every device profile, counter and
    // sample is bit-identical at any thread count.
    let concurrent = gpus[0].host_threads() > 1;
    let mut first_wave: Vec<Option<_>> = slices.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        for ((gpu, slot), slice) in gpus.iter_mut().zip(&mut first_wave).zip(&slices) {
            let mut job = move || *slot = Some(run(gpu, slice));
            if concurrent {
                s.spawn(job);
            } else {
                job();
            }
        }
    });
    // Reduction, strictly in slice order. A slice whose device is gone,
    // or dies during the slice, re-runs on the least-loaded survivor.
    let mut alive = vec![true; num_gpus];
    let mut device_ms = vec![0.0f64; num_gpus];
    let mut report = FaultReport::default();
    let mut per_gpu = Vec::with_capacity(slices.len());
    for ((i, slice), first) in slices.iter().enumerate().zip(first_wave) {
        // The first wave's result stands only if its device is still alive.
        let (mut dev, mut pending) = (i, first.filter(|_| alive[i]));
        loop {
            if !alive[dev] {
                dev =
                    least_loaded_alive(&alive, &device_ms).ok_or(NextDoorError::AllDevicesLost)?;
            }
            match pending.take().unwrap_or_else(|| run(&mut gpus[dev], slice)) {
                Ok(res) => {
                    device_ms[dev] += res.stats.total_ms;
                    report.merge(&res.report);
                    per_gpu.push(res);
                    break;
                }
                Err(NextDoorError::DeviceLost { .. }) => {
                    alive[dev] = false;
                    report.devices_lost += 1;
                    report.failovers += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
    let makespan_ms = device_ms.iter().cloned().fold(0.0f64, f64::max);
    let device_profiles = gpus.iter().map(|g| g.profile().clone()).collect();
    Ok(MultiGpuResult {
        per_gpu,
        makespan_ms,
        report,
        device_profiles,
    })
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

    #[test]
    fn partitions_cover_all_samples() {
        let g = rmat(8, 2000, RmatParams::SKEWED, 1);
        let init: Vec<Vec<u32>> = (0..100).map(|i| vec![i as u32 % 256]).collect();
        let spec = GpuSpec::small();
        let res = run_nextdoor_multi_gpu(&spec, 4, &g, &Walk(4), &init, 5).unwrap();
        assert_eq!(res.per_gpu.len(), 4);
        assert_eq!(res.total_samples(), 100);
        assert!(res.makespan_ms > 0.0);
        assert!(res.report.is_clean());
        for r in &res.per_gpu {
            assert!(r.stats.total_ms <= res.makespan_ms + 1e-12);
        }
    }

    #[test]
    fn four_gpus_speed_up_large_workloads() {
        // Figure 10's claim: with enough samples to saturate one device,
        // four devices finish close to 4x faster.
        let g = rmat(10, 20_000, RmatParams::SKEWED, 2);
        let init: Vec<Vec<u32>> = (0..16_384).map(|i| vec![(i % 1024) as u32]).collect();
        // A small device with modest launch overhead keeps the test fast
        // while leaving enough per-step work to amortise fixed costs, as
        // the paper's full-scale workloads do on the V100.
        let mut spec = GpuSpec::small();
        spec.num_sms = 4;
        spec.cost.launch_overhead = 100.0;
        let single = run_nextdoor_multi_gpu(&spec, 1, &g, &Walk(6), &init, 3).unwrap();
        let quad = run_nextdoor_multi_gpu(&spec, 4, &g, &Walk(6), &init, 3).unwrap();
        let speedup = single.makespan_ms / quad.makespan_ms;
        assert!(
            speedup > 2.0,
            "4-GPU speedup {speedup:.2} should be substantial"
        );
    }

    #[test]
    fn too_many_gpus_rejected() {
        let g = rmat(6, 100, RmatParams::SKEWED, 1);
        let res = run_nextdoor_multi_gpu(&GpuSpec::small(), 8, &g, &Walk(1), &[vec![0]], 0);
        assert_eq!(
            res.err().map(|e| e.to_string()).unwrap_or_default(),
            "more GPUs (8) than samples (1) to distribute"
        );
        let res = run_nextdoor_multi_gpu(&GpuSpec::small(), 0, &g, &Walk(1), &[vec![0]], 0);
        assert!(matches!(res, Err(NextDoorError::NoGpus)));
    }

    #[test]
    fn lost_device_fails_over_with_identical_samples() {
        let g = rmat(8, 2000, RmatParams::SKEWED, 1);
        let init: Vec<Vec<u32>> = (0..60).map(|i| vec![i as u32 % 256]).collect();
        let spec = GpuSpec::small();
        let clean = run_nextdoor_multi_gpu(&spec, 3, &g, &Walk(4), &init, 9).unwrap();
        // Device 1 dies early in its shard; the shard must re-run elsewhere.
        let plans = vec![
            FaultPlan::new(),
            FaultPlan::new().lose_device_at_launch(2),
            FaultPlan::new(),
        ];
        let faulty =
            run_nextdoor_multi_gpu_with_faults(&spec, 3, &g, &Walk(4), &init, 9, &plans).unwrap();
        assert_eq!(faulty.report.devices_lost, 1);
        assert_eq!(faulty.report.failovers, 1);
        assert_eq!(faulty.per_gpu.len(), 3);
        for (c, f) in clean.per_gpu.iter().zip(&faulty.per_gpu) {
            assert_eq!(c.store.final_samples(), f.store.final_samples());
        }
        // The slices are the matching slices of a single-device run.
        let single = run_nextdoor(&mut Gpu::new(spec), &g, &Walk(4), &init, 9).unwrap();
        let sliced: Vec<Vec<u32>> = faulty
            .per_gpu
            .iter()
            .flat_map(|r| r.store.final_samples())
            .collect();
        assert_eq!(sliced, single.store.final_samples());
    }

    #[test]
    fn losing_every_device_is_a_typed_error() {
        let g = rmat(8, 2000, RmatParams::SKEWED, 1);
        let init: Vec<Vec<u32>> = (0..20).map(|i| vec![i as u32 % 256]).collect();
        let plans = vec![
            FaultPlan::new().lose_device_at_launch(0),
            FaultPlan::new().lose_device_at_launch(0),
        ];
        let res = run_nextdoor_multi_gpu_with_faults(
            &GpuSpec::small(),
            2,
            &g,
            &Walk(3),
            &init,
            1,
            &plans,
        );
        assert!(matches!(res, Err(NextDoorError::AllDevicesLost)));
    }
}
