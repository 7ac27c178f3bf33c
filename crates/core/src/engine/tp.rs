//! The vanilla transit-parallel baseline engine ("TP", paper §5.2).
//!
//! TP inverts the sample→transit map like NextDoor (and pays the same map
//! inversion cost) and caches adjacencies in shared memory, but it has no
//! load balancing: every transit gets one thread block regardless of how
//! many samples it serves, so a hot transit's block becomes a straggler.

use crate::api::SamplingApp;
use crate::engine::driver::{run_gpu_engine, GpuEngineKind};
use crate::engine::{RunResult, SampleKeys};
use crate::error::NextDoorError;
use nextdoor_gpu::Gpu;
use nextdoor_graph::{Csr, VertexId};

/// Runs `app` with vanilla transit-parallelism.
///
/// # Errors
///
/// Errors under the same conditions as
/// [`crate::engine::sp::run_sample_parallel`] (no degraded mode).
pub fn run_vanilla_tp(
    gpu: &mut Gpu,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
) -> Result<RunResult, NextDoorError> {
    let keys = SampleKeys::uniform(seed);
    run_gpu_engine(gpu, graph, app, init, &keys, GpuEngineKind::VanillaTp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, Steps};
    use crate::engine::cpu::run_cpu;
    use crate::engine::nextdoor::run_nextdoor;
    use nextdoor_gpu::GpuSpec;
    use nextdoor_graph::gen::{rmat, RmatParams};

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
    fn matches_cpu_reference() {
        let g = rmat(9, 3000, RmatParams::SKEWED, 13);
        let init: Vec<Vec<u32>> = (0..96).map(|i| vec![(i * 5 % 512) as u32]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let tp = run_vanilla_tp(&mut gpu, &g, &TwoHop, &init, 21).unwrap();
        let cpu = run_cpu(&g, &TwoHop, &init, 21).unwrap();
        assert_eq!(tp.store.final_samples(), cpu.store.final_samples());
        assert!(tp.stats.scheduling_ms > 0.0, "TP pays for map inversion");
    }

    #[test]
    fn nextdoor_outperforms_tp_on_skewed_graphs() {
        // Without the 3-class load balancing, TP's hot-transit blocks become
        // stragglers; NextDoor should finish sampling faster.
        let g = rmat(10, 20_000, RmatParams::SKEWED, 17);
        // Many samples rooted at the same few vertices concentrate load.
        let init: Vec<Vec<u32>> = (0..1024).map(|i| vec![(i % 16) as u32]).collect();
        let mut gpu_tp = Gpu::new(GpuSpec::small());
        let tp = run_vanilla_tp(&mut gpu_tp, &g, &TwoHop, &init, 8).unwrap();
        let mut gpu_nd = Gpu::new(GpuSpec::small());
        let nd = run_nextdoor(&mut gpu_nd, &g, &TwoHop, &init, 8).unwrap();
        assert_eq!(tp.store.final_samples(), nd.store.final_samples());
        assert!(
            nd.stats.sampling_ms < tp.stats.sampling_ms,
            "NextDoor sampling {} ms should beat TP {} ms",
            nd.stats.sampling_ms,
            tp.stats.sampling_ms
        );
    }
}
