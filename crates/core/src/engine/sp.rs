//! The sample-parallel baseline engine ("SP", paper §5.1 and §8.2).
//!
//! This is the strongest non-transit-parallel configuration the paper
//! compares against: it keeps NextDoor's fine-grained API-level parallelism
//! (`m` consecutive threads per sample/transit pair, coalesced writes) but
//! has no transit grouping, so adjacency reads are uncoalesced across a
//! warp, nothing can be cached, and divergent `next` executions share warps.

use crate::api::SamplingApp;
use crate::engine::driver::{run_gpu_engine, GpuEngineKind};
use crate::engine::{RunResult, SampleKeys};
use crate::error::NextDoorError;
use nextdoor_gpu::Gpu;
use nextdoor_graph::{Csr, VertexId};

/// Runs `app` with the optimised sample-parallel strategy.
///
/// # Errors
///
/// Errors under the same conditions as
/// [`crate::engine::nextdoor::run_nextdoor`], except that the baseline has
/// no out-of-core degraded mode: an upload that does not fit surfaces as
/// [`NextDoorError::OutOfMemory`].
pub fn run_sample_parallel(
    gpu: &mut Gpu,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
) -> Result<RunResult, NextDoorError> {
    let keys = SampleKeys::uniform(seed);
    run_gpu_engine(gpu, graph, app, init, &keys, GpuEngineKind::SampleParallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, Steps};
    use crate::engine::cpu::run_cpu;
    use crate::engine::nextdoor::run_nextdoor;
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
    fn matches_cpu_reference() {
        let g = rmat(8, 2000, RmatParams::SKEWED, 3);
        let init: Vec<Vec<u32>> = (0..64).map(|i| vec![i * 3 % 256]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let sp = run_sample_parallel(&mut gpu, &g, &Walk(8), &init, 11).unwrap();
        let cpu = run_cpu(&g, &Walk(8), &init, 11).unwrap();
        assert_eq!(sp.store.final_samples(), cpu.store.final_samples());
        assert_eq!(sp.stats.scheduling_ms, 0.0, "SP builds no scheduling index");
    }

    /// DeepWalk-style weighted walk: rejection sampling probes several
    /// edges per step, the workload Figure 8 actually measures.
    struct WeightedWalk(usize);
    impl SamplingApp for WeightedWalk {
        fn name(&self) -> &'static str {
            "weighted-walk"
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
            let t = ctx.transits()[0];
            let max_w = ctx.max_edge_weight(t);
            for _ in 0..16 {
                let i = ctx.rand_range(d);
                let w = ctx.edge_weight(i);
                if ctx.rand_f32() * max_w <= w {
                    return Some(ctx.src_edge(i));
                }
            }
            let i = ctx.rand_range(d);
            Some(ctx.src_edge(i))
        }
    }

    #[test]
    fn nextdoor_issues_fewer_l2_reads_than_sp() {
        // Figure 8's claim: NextDoor performs a fraction of SP's L2 read
        // transactions thanks to coalescing and caching.
        let g = rmat(10, 10_000, RmatParams::SKEWED, 7).with_random_weights(1.0, 5.0, 3);
        let init: Vec<Vec<u32>> = (0..2048).map(|i| vec![(i % 1024) as u32]).collect();
        let mut gpu_sp = Gpu::new(GpuSpec::small());
        let sp = run_sample_parallel(&mut gpu_sp, &g, &WeightedWalk(10), &init, 4).unwrap();
        let mut gpu_nd = Gpu::new(GpuSpec::small());
        let nd = run_nextdoor(&mut gpu_nd, &g, &WeightedWalk(10), &init, 4).unwrap();
        assert_eq!(sp.store.final_samples(), nd.store.final_samples());
        let sp_reads = sp.stats.counters.l2_read_transactions() as f64;
        let nd_sampling_reads = nd.stats.counters.l2_read_transactions() as f64;
        assert!(
            nd_sampling_reads < sp_reads,
            "NextDoor reads {nd_sampling_reads} should undercut SP reads {sp_reads}"
        );
    }
}
