//! `deepwalk` and `ladies`: one offline `run_nextdoor` call per pass.

use crate::layers::{put_counters, put_host_rates, put_phases, PHASES};
use crate::report::{same_store, store_hash, Values};
use crate::trace::Tracer;
use crate::traffic::{self, gpu_spec};
use crate::{Pass, Workload};
use nextdoor_core::{
    initial_samples_random, run_cpu, run_nextdoor, KernelPhase, RunResult, SamplingApp,
};
use nextdoor_gpu::Gpu;
use nextdoor_graph::{Csr, VertexId};

pub struct Offline {
    name: &'static str,
    seed: u64,
    make_app: fn() -> Box<dyn SamplingApp + Send>,
    make_init: fn(&Csr, u64) -> Vec<Vec<VertexId>>,
}

impl Offline {
    pub fn deepwalk(seed: u64) -> Self {
        Offline {
            name: "deepwalk",
            seed,
            make_app: || Box::new(nextdoor_apps::DeepWalk::new(traffic::DEEPWALK_LEN)),
            make_init: |g, seed| {
                initial_samples_random(g, g.num_vertices(), 1, seed ^ 0x1001)
                    .expect("the walk graph is non-empty")
            },
        }
    }

    pub fn ladies(seed: u64) -> Self {
        Offline {
            name: "ladies",
            seed,
            make_app: || {
                Box::new(nextdoor_apps::Ladies::new(
                    traffic::LADIES_LAYERS,
                    traffic::LADIES_BATCH,
                ))
            },
            make_init: |g, seed| {
                initial_samples_random(
                    g,
                    traffic::LADIES_BATCHES,
                    traffic::LADIES_BATCH,
                    seed ^ 0x1003,
                )
                .expect("the walk graph is non-empty")
            },
        }
    }

    fn run_seed(&self) -> u64 {
        self.seed ^ 0x5EED
    }
}

pub struct State {
    graph: Csr,
    app: Box<dyn SamplingApp + Send>,
    init: Vec<Vec<VertexId>>,
    gpu: Gpu,
    gen_s: f64,
}

impl Workload for Offline {
    type State = State;
    type Output = RunResult;

    fn setup(&self, tr: &mut Tracer) -> Result<State, String> {
        let (graph, gen_s) = traffic::generate(tr, traffic::WALK_GRAPH);
        let init = (self.make_init)(&graph, self.seed);
        let (gpu, _) = tr.call("gpu-sim", "Gpu::new", None, || Gpu::new(gpu_spec()));
        Ok(State {
            graph,
            app: (self.make_app)(),
            init,
            gpu,
            gen_s,
        })
    }

    fn measure(&self, st: &mut State, tr: &mut Tracer) -> Result<Pass<RunResult>, String> {
        let State {
            graph,
            app,
            init,
            gpu,
            ..
        } = st;
        let (res, host_s) = tr.call("core.engine", "run_nextdoor", None, || {
            run_nextdoor(gpu, graph, app.as_ref(), init, self.run_seed())
        });
        let res = res.map_err(|e| format!("{}: run_nextdoor failed: {e}", self.name))?;
        let (device_ms, _) = tr.call("gpu-sim", "Gpu::elapsed_ms", None, || gpu.elapsed_ms());
        let (counters, _) = tr.call("gpu-sim", "Gpu::counters", None, || *gpu.counters());
        if device_ms != res.stats.total_ms {
            return Err(format!(
                "device clock {device_ms} ms disagrees with the run's {} ms",
                res.stats.total_ms
            ));
        }

        let sim_ms = res.stats.total_ms;
        let mut sim = Values::default();
        sim.put("sim_ms", sim_ms);
        // The whole epoch is the one request of an offline pass.
        sim.put("sim_p50_ms", sim_ms);
        sim.put("sim_p99_ms", sim_ms);
        sim.put("served_frac", 1.0);
        sim.put("slo_attainment", 1.0);
        sim.put("max_rate_rps_sim", 1e3 / sim_ms);
        put_counters(&mut sim, &counters);
        let profile = &res.stats.profile;
        put_phases(&mut sim, |phase| {
            tr.call("core.engine", "RunProfile::phase_ms", None, || {
                profile.phase_ms(phase)
            })
            .0
        });
        let sched_launches: u64 = profile
            .kernels
            .iter()
            .filter(|k| k.phase == KernelPhase::Scheduling)
            .map(|k| k.launches)
            .sum();
        sim.put("engine.scheduling_launches", sched_launches as f64);

        let mut host = Values::default();
        host.put("graph.gen_s", st.gen_s);
        put_host_rates(&mut host, host_s, &counters);
        Ok(Pass {
            host_s,
            samples: res.store.num_samples() as u64,
            attempted: 1,
            failed: 0,
            sim,
            host,
            digest: store_hash(&res.store),
            notes: Vec::new(),
            output: res,
        })
    }

    fn check(&self, st: &State, out: &RunResult, tr: &mut Tracer) -> Result<(), String> {
        let (cpu, _) = tr.call("core.engine", "run_cpu", None, || {
            run_cpu(&st.graph, st.app.as_ref(), &st.init, self.run_seed())
        });
        let cpu = cpu.map_err(|e| format!("run_cpu failed: {e}"))?;
        if !same_store(&cpu.store, &out.store) {
            return Err(format!("{}: samples differ from run_cpu", self.name));
        }
        let profile = &out.stats.profile;
        if profile.in_run_evicted != 0 {
            return Err("the device profile evicted records; the breakdown is partial".into());
        }
        let phase_sum: f64 = PHASES.iter().map(|&p| profile.phase_ms(p)).sum();
        let total = out.stats.total_ms;
        if (phase_sum - total).abs() > 1e-9 * total.max(1.0) {
            return Err(format!(
                "phase times sum to {phase_sum} ms, not sim_ms {total}"
            ));
        }
        Ok(())
    }

    fn describe(&self, st: &State) -> Vec<(&'static str, String)> {
        vec![
            (
                "graph",
                traffic::describe_graph(traffic::WALK_GRAPH, &st.graph),
            ),
            ("app", st.app.name().to_string()),
            (
                "samples",
                format!(
                    "{} x width {}",
                    st.init.len(),
                    st.init.first().map_or(0, Vec::len)
                ),
            ),
        ]
    }
}
