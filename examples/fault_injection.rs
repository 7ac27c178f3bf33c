//! Scripting device faults against a run and watching the runtime recover
//! (or fail with a typed error). The counter-keyed RNG makes every recovery
//! path — out-of-core degradation, step retry, multi-GPU slice failover —
//! reproduce the fault-free samples exactly.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use nextdoor::apps::KHop;
use nextdoor::core::multi_gpu::run_nextdoor_multi_gpu_with_faults;
use nextdoor::core::{initial_samples_random, run_nextdoor};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::Dataset;

fn main() {
    let graph = Dataset::Ppi.generate(0.05, 7);
    let init = initial_samples_random(&graph, 1000, 1, 42).expect("non-empty graph");
    let app = KHop::graphsage();

    // Reference: a fault-free run.
    let mut clean_gpu = Gpu::new(GpuSpec::v100());
    let clean = run_nextdoor(&mut clean_gpu, &graph, &app, &init, 123).expect("clean run");

    // Script: the graph upload OOMs, and kernel launch #5 faults transiently.
    let mut gpu = Gpu::new(GpuSpec::v100());
    gpu.inject_faults(FaultPlan::new().fail_alloc(0).transient_at_launch(5));
    let faulty = run_nextdoor(&mut gpu, &graph, &app, &init, 123).expect("recoverable");
    assert!(faulty.report.degraded_to_out_of_core);
    assert!(faulty.report.step_retries >= 1);
    assert_eq!(
        clean.store.final_samples(),
        faulty.store.final_samples(),
        "recovered run must be byte-identical"
    );
    println!("single GPU survived: {}", faulty.report);

    // Multi-GPU: device 1 dies mid-run; its slice fails over to a survivor.
    // Every sample is keyed by its global index, so the slices together
    // are exactly the single-device samples.
    let plans = [
        FaultPlan::new(),
        FaultPlan::new().lose_device_at_launch(2),
        FaultPlan::new(),
    ];
    let multi =
        run_nextdoor_multi_gpu_with_faults(&GpuSpec::v100(), 3, &graph, &app, &init, 123, &plans)
            .expect("failover succeeds");
    assert_eq!(multi.report.failovers, 1);
    let sliced: Vec<_> = multi
        .per_gpu
        .iter()
        .flat_map(|r| r.store.final_samples())
        .collect();
    assert_eq!(
        sliced,
        clean.store.final_samples(),
        "failed-over slices must be byte-identical"
    );
    println!("multi GPU survived: {}", multi.report);

    // Unrecoverable: the only device is lost — a typed error, not a panic.
    let mut doomed = Gpu::new(GpuSpec::v100());
    doomed.inject_faults(FaultPlan::new().lose_device_at_launch(1));
    match run_nextdoor(&mut doomed, &graph, &app, &init, 123) {
        Err(e) => println!("single device lost: error as expected: {e}"),
        Ok(_) => unreachable!("a lost lone device cannot succeed"),
    }
}
