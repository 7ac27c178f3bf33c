//! Figures of the `gpu-sim` and `core.engine` layers, read from outside
//! through their public calls.

use crate::report::Values;
use nextdoor_core::{classify_kernel, KernelPhase};
use nextdoor_gpu::profile::ProfileEvent;
use nextdoor_gpu::{Counters, Gpu, GpuSpec};

/// Every kernel phase, so their times can be summed against the total.
pub const PHASES: [KernelPhase; 9] = [
    KernelPhase::Scheduling,
    KernelPhase::Transit,
    KernelPhase::SubWarp,
    KernelPhase::Block,
    KernelPhase::Grid,
    KernelPhase::SampleParallel,
    KernelPhase::Collective,
    KernelPhase::PostProcess,
    KernelPhase::Other,
];

/// The per-layer metric each reported phase feeds.
pub const PHASE_METRICS: [(KernelPhase, &str); 6] = [
    (KernelPhase::Scheduling, "engine.scheduling_sim_ms"),
    (KernelPhase::Transit, "engine.transit_sim_ms"),
    (KernelPhase::SubWarp, "engine.subwarp_sim_ms"),
    (KernelPhase::Block, "engine.block_sim_ms"),
    (KernelPhase::Grid, "engine.grid_sim_ms"),
    (KernelPhase::Collective, "engine.collective_sim_ms"),
];

fn phase_index(p: KernelPhase) -> usize {
    PHASES
        .iter()
        .position(|&q| q == p)
        .expect("PHASES lists every phase")
}

/// Records the gpu-sim counters of a measured phase.
pub fn put_counters(v: &mut Values, c: &Counters) {
    v.put("gpu.launches", c.launches as f64);
    v.put("gpu.gld_transactions", c.gld_transactions as f64);
    v.put("gpu.gst_transactions", c.gst_transactions as f64);
    v.put("gpu.divergent_branches", c.divergent_branches as f64);
    v.put("gpu.sm_busy_frac", c.multiprocessor_activity() / 100.0);
    v.put("gpu.htod_bytes", c.htod_bytes as f64);
    v.put("gpu.dtoh_bytes", c.dtoh_bytes as f64);
}

/// Records the host cost of `host_s` seconds of engine calls per launch
/// and per simulated memory request.
pub fn put_host_rates(v: &mut Values, host_s: f64, c: &Counters) {
    v.put("engine.run_host_s", host_s);
    v.put(
        "gpu.host_us_per_launch",
        host_s * 1e6 / c.launches.max(1) as f64,
    );
    v.put(
        "gpu.host_ns_per_mem_request",
        host_s * 1e9 / (c.gld_requests + c.gst_requests).max(1) as f64,
    );
}

/// Simulated ms and launches per kernel phase, read from devices' profile
/// buffers. [`PhaseTally::harvest`] reads only the events recorded since
/// its last call, so calling it after every dispatch keeps the tally
/// complete however small the buffer is.
#[derive(Debug, Clone, Default)]
pub struct PhaseTally {
    seen: u64,
    cycles: [f64; PHASES.len()],
    launches: [u64; PHASES.len()],
}

impl PhaseTally {
    /// A tally of `gpu`'s launches from now on.
    pub fn new(gpu: &Gpu) -> Self {
        let p = gpu.profile();
        PhaseTally {
            seen: p.len() as u64 + p.evicted_events(),
            ..PhaseTally::default()
        }
    }

    /// Adds the kernels `gpu` launched since the last harvest.
    pub fn harvest(&mut self, gpu: &Gpu) -> Result<(), String> {
        let p = gpu.profile();
        let total = p.len() as u64 + p.evicted_events();
        let fresh = usize::try_from(total - self.seen).unwrap_or(usize::MAX);
        if fresh > p.len() {
            return Err("the device profile evicted records before they were read".into());
        }
        for e in p.events().skip(p.len() - fresh) {
            if let ProfileEvent::Kernel(k) = e {
                let i = phase_index(classify_kernel(&k.name));
                self.cycles[i] += k.cycles;
                self.launches[i] += 1;
            }
        }
        self.seen = total;
        Ok(())
    }

    /// Adds another device's tally.
    pub fn merge(&mut self, other: &PhaseTally) {
        for i in 0..PHASES.len() {
            self.cycles[i] += other.cycles[i];
            self.launches[i] += other.launches[i];
        }
    }

    /// Launches tallied.
    pub fn launches(&self) -> u64 {
        self.launches.iter().sum()
    }

    /// Simulated ms of every phase together.
    pub fn total_ms(&self, spec: &GpuSpec) -> f64 {
        self.cycles.iter().map(|&c| spec.cycles_to_ms(c)).sum()
    }

    /// Records the `engine.*` phase metrics.
    pub fn put(&self, v: &mut Values, spec: &GpuSpec) {
        put_phases(v, |p| spec.cycles_to_ms(self.cycles[phase_index(p)]));
        let sched = self.launches[phase_index(KernelPhase::Scheduling)];
        v.put("engine.scheduling_launches", sched as f64);
    }
}

/// Records the `engine.*_sim_ms` metrics from a per-phase ms lookup.
pub fn put_phases(v: &mut Values, mut ms: impl FnMut(KernelPhase) -> f64) {
    for (phase, name) in PHASE_METRICS {
        v.put(name, ms(phase));
    }
}
