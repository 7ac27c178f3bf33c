//! Sampling graphs that exceed device memory (paper §8.4).
//!
//! The graph is partitioned into disjoint sub-graphs — contiguous vertex
//! ranges with their full adjacency lists — each small enough to fit the
//! device budget alongside the sample buffers. At every step the engine
//! determines which sub-graphs hold live transit vertices, transfers those
//! sub-graphs over PCIe (charged against simulated time, as the paper does
//! for this experiment only), and runs the normal transit-parallel kernels.
//!
//! The paper's finding reproduces from this cost structure: k-hop and layer
//! sampling are computation-bound (many `next` calls per transferred byte),
//! while cheap random walks are transfer-bound — NextDoor loses to a CPU
//! system on DeepWalk/PPR but wins on compute-heavy node2vec.
//!
//! This engine is also the degraded mode the in-core NextDoor engine falls
//! back to when the graph upload does not fit in device memory (see
//! `engine::driver::run_gpu_engine`); it produces byte-identical
//! samples because both modes share `run_step_loop`.

use crate::api::SamplingApp;
use crate::engine::driver::{finish_run, run_step_loop, GpuEngineKind};
use crate::engine::{EngineStats, RunResult, SampleKeys};
use crate::error::{validate_run, NextDoorError};
use crate::gpu_graph::GpuGraph;
use nextdoor_gpu::Gpu;
use nextdoor_graph::{Csr, VertexId};

/// A partitioning of a graph into device-sized sub-graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphPartitions {
    /// Exclusive end vertex of each partition (ascending).
    ends: Vec<VertexId>,
    /// Bytes of each partition's CSR slice.
    bytes: Vec<usize>,
}

impl GraphPartitions {
    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no partitions (empty graph).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Partition index of vertex `v`.
    pub fn partition_of(&self, v: VertexId) -> usize {
        self.ends.partition_point(|&e| e <= v)
    }

    /// Bytes of partition `p`.
    pub fn bytes_of(&self, p: usize) -> usize {
        self.bytes[p]
    }
}

/// Splits `graph` into contiguous vertex ranges whose CSR slices each fit
/// in `budget_bytes`.
///
/// # Errors
///
/// Returns [`NextDoorError::PartitionBudgetTooSmall`] if any single vertex's
/// adjacency alone exceeds the budget.
pub fn partition_graph(graph: &Csr, budget_bytes: usize) -> Result<GraphPartitions, NextDoorError> {
    let mut ends = Vec::new();
    let mut bytes = Vec::new();
    let mut cur_bytes = 0usize;
    let per_vertex = 2 * std::mem::size_of::<u32>(); // offset + degree entries
    for v in 0..graph.num_vertices() as VertexId {
        let vb = per_vertex + graph.degree(v) * std::mem::size_of::<u32>();
        if vb > budget_bytes {
            return Err(NextDoorError::PartitionBudgetTooSmall {
                vertex: v,
                bytes: vb,
                budget: budget_bytes,
            });
        }
        if cur_bytes + vb > budget_bytes {
            ends.push(v);
            bytes.push(cur_bytes);
            cur_bytes = 0;
        }
        cur_bytes += vb;
    }
    if graph.num_vertices() > 0 {
        ends.push(graph.num_vertices() as VertexId);
        bytes.push(cur_bytes);
    }
    Ok(GraphPartitions { ends, bytes })
}

/// Statistics specific to an out-of-core run.
#[derive(Debug, Clone, Default)]
pub struct OutOfCoreStats {
    /// Engine statistics (transfer time included in `total_ms`).
    pub engine: EngineStats,
    /// Milliseconds spent transferring sub-graphs.
    pub transfer_ms: f64,
    /// Sub-graph transfers performed.
    pub transfers: usize,
    /// Number of partitions the graph was split into.
    pub partitions: usize,
    /// Samples produced per second of simulated time.
    pub samples_per_sec: f64,
}

/// The out-of-core engine body, shared by the public entry point and the
/// in-core engine's degraded mode. Assumes inputs are already validated.
pub(crate) fn out_of_core_run(
    gpu: &mut Gpu,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    keys: &SampleKeys,
    budget_bytes: usize,
) -> Result<(RunResult, OutOfCoreStats), NextDoorError> {
    let parts = partition_graph(graph, budget_bytes)?;
    // The full graph lives in host (pinned) memory; residency on the device
    // is modelled by the per-step sub-graph transfer charges below, so the
    // staged buffers are neither capacity-counted nor fault-injected.
    let gg = GpuGraph::upload_staged(gpu, graph);
    gpu.set_charge_transfers(true);
    let counters0 = *gpu.counters();
    let launch0 = gpu.launches_issued();
    let loop_res = run_step_loop(
        gpu,
        graph,
        &gg,
        app,
        init,
        keys,
        GpuEngineKind::NextDoor,
        Some(&parts),
        &crate::tuning::TuningPlan::default(),
        None,
    );
    gpu.set_charge_transfers(false);
    let out = loop_res?;
    let transfer_ms = gpu.spec().cycles_to_ms(out.transfer_cycles);
    let (transfers, num_samples) = (out.transfers, out.store.num_samples());
    let mut res = finish_run(gpu, &counters0, launch0, out);
    // Transfer time is charged on the device clock; split it out of the
    // kernel time `finish_run` attributes to sampling.
    res.stats.sampling_ms -= transfer_ms;
    let ooc = OutOfCoreStats {
        engine: res.stats.clone(),
        transfer_ms,
        transfers,
        partitions: parts.len(),
        samples_per_sec: num_samples as f64 / (res.stats.total_ms / 1e3).max(1e-12),
    };
    Ok((res, ooc))
}

/// Runs `app` transit-parallel on a graph that does not fit in device
/// memory, transferring the needed sub-graphs each step.
///
/// `budget_bytes` is the device memory available for graph data. Unlike the
/// in-memory engines, host↔device transfer time is charged — this is the
/// experiment where the paper includes it.
///
/// # Errors
///
/// Returns [`NextDoorError`] on invalid inputs, a partition budget smaller
/// than a single adjacency list, genuine device-memory exhaustion, device
/// loss, or a step that keeps faulting past its retry budget.
pub fn run_nextdoor_out_of_core(
    gpu: &mut Gpu,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
    budget_bytes: usize,
) -> Result<(RunResult, OutOfCoreStats), NextDoorError> {
    validate_run(graph, app, init)?;
    let keys = SampleKeys::uniform(seed);
    out_of_core_run(gpu, graph, app, init, &keys, budget_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, Steps};
    use crate::engine::cpu::run_cpu;
    use nextdoor_gpu::GpuSpec;
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
    fn partitions_cover_and_locate_vertices() {
        let g = rmat(9, 5000, RmatParams::SKEWED, 1);
        let parts = partition_graph(&g, g.size_bytes() / 4).unwrap();
        assert!(parts.len() >= 3, "budget forces several partitions");
        for v in 0..g.num_vertices() as u32 {
            let p = parts.partition_of(v);
            assert!(p < parts.len());
        }
        assert_eq!(parts.partition_of(0), 0);
        let total: usize = (0..parts.len()).map(|p| parts.bytes_of(p)).sum();
        assert!(total > 0);
    }

    #[test]
    fn tiny_budget_is_a_typed_error() {
        let g = rmat(9, 5000, RmatParams::SKEWED, 1);
        assert!(matches!(
            partition_graph(&g, 4),
            Err(NextDoorError::PartitionBudgetTooSmall { budget: 4, .. })
        ));
    }

    #[test]
    fn out_of_core_matches_cpu_and_charges_transfers() {
        let g = rmat(9, 4000, RmatParams::SKEWED, 2);
        let init: Vec<Vec<u32>> = (0..64).map(|i| vec![(i * 7 % 512) as u32]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let (res, ooc) =
            run_nextdoor_out_of_core(&mut gpu, &g, &Walk(6), &init, 5, g.size_bytes() / 4).unwrap();
        let cpu = run_cpu(&g, &Walk(6), &init, 5).unwrap();
        assert_eq!(res.store.final_samples(), cpu.store.final_samples());
        assert!(res.report.is_clean());
        assert!(ooc.partitions >= 3);
        assert!(ooc.transfers > 0);
        assert!(ooc.transfer_ms > 0.0);
        assert!(ooc.samples_per_sec > 0.0);
    }

    #[test]
    fn smaller_budget_means_more_transfers() {
        let g = rmat(9, 4000, RmatParams::SKEWED, 2);
        let init: Vec<Vec<u32>> = (0..64).map(|i| vec![(i * 3 % 512) as u32]).collect();
        let mut gpu1 = Gpu::new(GpuSpec::small());
        let (_, big) =
            run_nextdoor_out_of_core(&mut gpu1, &g, &Walk(4), &init, 5, g.size_bytes()).unwrap();
        let mut gpu2 = Gpu::new(GpuSpec::small());
        let (_, small) =
            run_nextdoor_out_of_core(&mut gpu2, &g, &Walk(4), &init, 5, g.size_bytes() / 8)
                .unwrap();
        assert!(small.partitions > big.partitions);
        assert!(small.transfers > big.transfers);
    }
}
