//! The fixed inputs and traffic of every workload.
//!
//! Each constant is set once, from a calibration on the commit that
//! introduced the benchmark, and is never rescaled from a measurement:
//! a faster engine must meet the same offered load and the same SLO, not
//! be handed more of it. `--seed` varies roots and request seeds; the
//! graphs and `serve`'s arrival trace are fixed.

use crate::trace::Tracer;
use nextdoor_gpu::GpuSpec;
use nextdoor_graph::{Csr, Dataset};
use nextdoor_serve::Priority;

/// Simulator host threads. One thread keeps host timings steady; counters,
/// profiles and samples are identical at every thread count.
pub const SIM_THREADS: usize = 1;

/// Dataset scale relative to the paper's Table 3.
pub const SCALE: f64 = 0.005;

/// Seed of the fixed dataset instances.
pub const GRAPH_SEED: u64 = 42;

/// splitmix64, the generator of every script: inputs are a pure function
/// of their seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulated device: a 4-SM slice of a V100 with launch overhead
/// scaled to the bench workload size (the figure binaries' default).
pub fn gpu_spec() -> GpuSpec {
    let mut spec = GpuSpec::v100();
    spec.num_sms = 4;
    spec.cost.launch_overhead = 150.0;
    spec.host_threads = SIM_THREADS;
    spec
}

/// Generates the fixed instance of `dataset` as one traced `graph` call,
/// returning it with the host seconds it took.
pub fn generate(tr: &mut Tracer, dataset: Dataset) -> (Csr, f64) {
    tr.call("graph", "Dataset::generate", None, || {
        dataset.generate(SCALE, GRAPH_SEED)
    })
}

/// One line describing the fixed instance of `dataset`.
pub fn describe_graph(dataset: Dataset, g: &Csr) -> String {
    format!(
        "{dataset:?} scale {SCALE} |V|={} |E|={}",
        g.num_vertices(),
        g.num_edges()
    )
}

/// `deepwalk` and `shard` run on the LiveJournal stand-in
/// (32,768 vertices, 481,780 edges at [`SCALE`]).
pub const WALK_GRAPH: Dataset = Dataset::LiveJournal;
/// DeepWalk length of the offline epoch; one walker per vertex.
pub const DEEPWALK_LEN: usize = 100;

/// LADIES layers and vertices per batch.
pub const LADIES_LAYERS: usize = 2;
pub const LADIES_BATCH: usize = 64;
/// LADIES batches per offline run.
pub const LADIES_BATCHES: usize = 256;

/// `serve` runs on the Reddit stand-in (1,024 vertices, 32,534 edges).
pub const SERVE_GRAPH: Dataset = Dataset::Reddit;
/// k-hop fan-outs of a serving request.
pub const SERVE_FANOUTS: [usize; 2] = [10, 5];
/// Samples (mini-batch roots) per request.
pub const SERVE_SAMPLES: usize = 32;
/// Root widths and their share of the root pool, in percent.
pub const SERVE_WIDTHS: [(usize, u32); 3] = [(1, 50), (2, 30), (4, 20)];
/// Priorities and their share of requests, in percent.
pub const SERVE_PRIORITIES: [(Priority, u32); 3] = [
    (Priority::High, 15),
    (Priority::Normal, 55),
    (Priority::Low, 30),
];
/// Root batches in the pool; requests revisit it every epoch with a fresh
/// seed.
pub const SERVE_ROOT_POOL: usize = 96;
/// Offered rates in requests per simulated second, with the requests sent
/// at each: `(name, rate, requests)`. `nominal` sends the most, so its
/// p99 has at least ten samples beyond it many times over.
pub const SERVE_RATES: [(&str, f64, usize); 3] = [
    ("low", 40_000.0, 400),
    ("nominal", 80_000.0, 2000),
    ("over", 180_000.0, 400),
];
/// Seed of the fixed arrival trace: arrival times, priorities and the
/// order each epoch visits the root pool. `--seed` varies the roots and
/// request seeds, not the trace: with the trace drawn from `--seed` too,
/// `nominal`'s simulated p50 and p99 spread 8-11% across seeds (5-8% with
/// tuning off), which would hide changes smaller than that.
pub const SERVE_TRACE_SEED: u64 = 0x7ACE_5EED;
/// Latency limit in simulated ms, from scheduled arrival to completion.
/// Each request carries it as its deadline.
pub const SERVE_SLO_MS: f64 = 0.1;
/// Batcher knobs.
pub const SERVE_MAX_BATCH: usize = 8;
pub const SERVE_MAX_QUEUE: usize = 16;
/// Share of requests sent that must meet the SLO for a rate to count as
/// sustained.
pub const SERVE_ATTAIN_TARGET: f64 = 0.99;

/// `shard`: shards, closed-loop workers (one outstanding request each),
/// requests per pass, walk length and samples per request.
pub const SHARD_COUNT: usize = 2;
pub const SHARD_WORKERS: usize = 8;
pub const SHARD_REQUESTS: usize = 2000;
pub const SHARD_WALK_LEN: usize = 10;
pub const SHARD_SAMPLES: usize = 32;
/// Latency limit of a `shard` request in simulated ms.
pub const SHARD_SLO_MS: f64 = 0.1;
