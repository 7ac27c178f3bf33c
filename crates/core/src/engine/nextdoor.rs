//! The NextDoor engine: transit-parallel sampling with load balancing and
//! caching (paper §6).

use crate::api::SamplingApp;
use crate::engine::driver::{run_gpu_engine, GpuEngineKind};
use crate::engine::{RunResult, SampleKeys};
use crate::error::NextDoorError;
use nextdoor_gpu::Gpu;
use nextdoor_graph::{Csr, VertexId};

/// Runs `app` with transit-parallelism: per-step scheduling index (radix
/// sort + scan), Table 2's three kernel classes, shared-memory/register
/// caching of transit adjacencies, and coalesced sub-warp writes.
///
/// When the graph upload does not fit in device memory, the run degrades
/// transparently to the out-of-core engine of [`crate::large_graph`] and
/// produces byte-identical samples (the result's `report` records the
/// degradation). Transiently-faulted steps are retried.
///
/// # Errors
///
/// Returns [`NextDoorError`] on invalid inputs (empty or unequal-sized
/// initial samples, out-of-range roots, zero steps), genuine device-memory
/// exhaustion, device loss, or a step that keeps faulting past its retry
/// budget.
pub fn run_nextdoor(
    gpu: &mut Gpu,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
) -> Result<RunResult, NextDoorError> {
    let keys = SampleKeys::uniform(seed);
    run_gpu_engine(gpu, graph, app, init, &keys, GpuEngineKind::NextDoor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, Steps};
    use crate::engine::cpu::run_cpu;
    use nextdoor_gpu::GpuSpec;
    use nextdoor_graph::gen::{ring_lattice, rmat, RmatParams};

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

    struct TwoHop;
    impl SamplingApp for TwoHop {
        fn name(&self) -> &'static str {
            "2hop"
        }
        fn steps(&self) -> Steps {
            Steps::Fixed(2)
        }
        fn sample_size(&self, step: usize) -> usize {
            if step == 0 {
                4
            } else {
                2
            }
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
    fn matches_cpu_reference_on_walks() {
        let g = rmat(8, 2000, RmatParams::SKEWED, 3);
        let init: Vec<Vec<u32>> = (0..64).map(|i| vec![i * 3 % 256]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let nd = run_nextdoor(&mut gpu, &g, &Walk(8), &init, 11).unwrap();
        let cpu = run_cpu(&g, &Walk(8), &init, 11).unwrap();
        assert_eq!(nd.store.final_samples(), cpu.store.final_samples());
    }

    #[test]
    fn matches_cpu_reference_on_khop() {
        let g = rmat(9, 4000, RmatParams::SKEWED, 5);
        let init: Vec<Vec<u32>> = (0..128).map(|i| vec![i as u32 * 4 % 512]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let nd = run_nextdoor(&mut gpu, &g, &TwoHop, &init, 77).unwrap();
        let cpu = run_cpu(&g, &TwoHop, &init, 77).unwrap();
        assert_eq!(nd.store.final_samples(), cpu.store.final_samples());
        assert_eq!(nd.stats.steps_run, 2);
    }

    #[test]
    fn scheduling_index_time_is_nonzero_and_bounded() {
        let g = ring_lattice(512, 4, 0);
        let init: Vec<Vec<u32>> = (0..256).map(|i| vec![i as u32]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let nd = run_nextdoor(&mut gpu, &g, &Walk(4), &init, 1).unwrap();
        assert!(nd.stats.scheduling_ms > 0.0);
        assert!(nd.stats.sampling_ms > 0.0);
        assert!(nd.stats.scheduling_ms < nd.stats.total_ms);
    }

    #[test]
    fn stores_are_fully_coalesced() {
        // Sub-warp writes should give ~100% store efficiency (Table 4).
        let g = ring_lattice(1024, 8, 0);
        let init: Vec<Vec<u32>> = (0..512).map(|i| vec![i as u32 * 2]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let nd = run_nextdoor(&mut gpu, &g, &TwoHop, &init, 5).unwrap();
        let eff = nd.stats.counters.gst_efficiency();
        assert!(eff > 80.0, "store efficiency {eff} too low");
    }

    #[test]
    fn walk_edges_are_real_edges() {
        let g = rmat(8, 1500, RmatParams::SKEWED, 9);
        let init: Vec<Vec<u32>> = (0..32).map(|i| vec![i * 7 % 256]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let nd = run_nextdoor(&mut gpu, &g, &Walk(6), &init, 2).unwrap();
        for s in nd.store.final_samples() {
            for w in s.windows(2) {
                assert!(g.has_edge(w[0], w[1]) || g.degree(w[0]) == 0);
            }
        }
    }
}
