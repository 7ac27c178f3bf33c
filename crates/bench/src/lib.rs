//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index). They share the configuration,
//! dataset preparation and formatting helpers defined here.
//!
//! All binaries accept:
//!
//! * `--scale <f>`   — dataset scale factor relative to Table 3 (default 0.01)
//! * `--samples <n>` — samples per application run (default 2048)
//! * `--sms <n>`     — SMs of the simulated GPU (default 16, a 1/5 V100)
//! * `--seed <n>`    — RNG seed (default 42)
//! * `--threads <n>` — host worker threads for the simulator's launch pool
//!   and the CPU baselines (default: available parallelism)
//! * `--profile`     — export per-kernel JSON + chrome-trace files to
//!   `results/` (see [`BenchConfig::export_profile`])

use nextdoor_core::initial_samples_random;
use nextdoor_gpu::{Gpu, GpuSpec};
use nextdoor_graph::{Csr, Dataset, VertexId};
use std::path::{Path, PathBuf};

pub mod jsonv;

/// Configuration shared by all bench binaries.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Dataset scale factor relative to Table 3.
    pub scale: f64,
    /// Samples per run.
    pub samples: usize,
    /// Simulated GPU.
    pub gpu: GpuSpec,
    /// RNG seed.
    pub seed: u64,
    /// CPU threads for the CPU baselines.
    pub threads: usize,
    /// Whether to export per-kernel profile artifacts to `results/`.
    pub profile: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        let mut gpu = GpuSpec::v100();
        // A 1/20-scale V100 with launch overhead scaled by the same
        // factor. The paper's runs use millions of samples per step on 80
        // SMs; the benches use tens of thousands, so the machine is scaled
        // to keep the workload-to-machine ratio (and hence the
        // fixed-cost-to-work ratio every figure depends on) near the
        // paper's (DESIGN.md).
        gpu.num_sms = 4;
        gpu.cost.launch_overhead = 150.0;
        BenchConfig {
            scale: 0.005,
            samples: 16384,
            gpu,
            seed: 42,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            profile: false,
        }
    }
}

impl BenchConfig {
    /// Parses the common CLI flags; unknown flags abort with usage help.
    pub fn from_args() -> Self {
        let mut cfg = BenchConfig::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
                    .clone()
            };
            match flag.as_str() {
                "--scale" => cfg.scale = value("--scale").parse().expect("numeric --scale"),
                "--samples" => cfg.samples = value("--samples").parse().expect("integer --samples"),
                "--sms" => cfg.gpu.num_sms = value("--sms").parse().expect("integer --sms"),
                "--seed" => cfg.seed = value("--seed").parse().expect("integer --seed"),
                "--threads" => {
                    let n: usize = value("--threads").parse().expect("integer --threads");
                    assert!(n > 0, "--threads must be positive");
                    cfg.threads = n;
                    cfg.gpu.host_threads = n;
                }
                "--profile" => cfg.profile = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale <f> --samples <n> --sms <n> --seed <n> --threads <n> \
                         --profile (see DESIGN.md)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        cfg
    }

    /// Generates the weighted, scaled stand-in for `dataset`.
    pub fn graph(&self, dataset: Dataset) -> Csr {
        dataset
            .generate(self.scale, self.seed)
            .with_random_weights(1.0, 5.0, self.seed ^ 0x77)
    }

    /// Root sets for walk-style applications: one random vertex per sample.
    ///
    /// DeepWalk-style training walks from *every* vertex, so the walker
    /// count is at least the vertex count — this is also what gives
    /// transit-parallelism its sharing (hubs attract many walkers).
    pub fn walk_init(&self, graph: &Csr) -> Vec<Vec<VertexId>> {
        let n = self.samples.max(graph.num_vertices());
        initial_samples_random(graph, n, 1, self.seed ^ 0x1001).expect("bench graphs are non-empty")
    }

    /// Root sets for multi-dimensional walks (100 roots per sample, as in
    /// the paper, scaled down alongside the sample budget).
    pub fn multirw_init(&self, graph: &Csr) -> Vec<Vec<VertexId>> {
        let per = 100usize;
        initial_samples_random(graph, (self.samples / 8).max(32), per, self.seed ^ 0x1002)
            .expect("bench graphs are non-empty")
    }

    /// Batches for importance sampling (batch size 64, as in the paper).
    pub fn batch_init(&self, graph: &Csr) -> Vec<Vec<VertexId>> {
        initial_samples_random(graph, (self.samples / 8).max(32), 64, self.seed ^ 0x1003)
            .expect("bench graphs are non-empty")
    }

    /// Directory the bench binaries drop artifacts into (created on
    /// demand).
    pub fn results_dir(&self) -> PathBuf {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).expect("can create results/");
        dir
    }

    /// Exports the device's profile as `results/profile_<label>.json` (the
    /// per-kernel Table 4 view) and `results/profile_<label>.trace.json`
    /// (a `chrome://tracing` / Perfetto file laid out by SM). No-op unless
    /// `--profile` was passed.
    pub fn export_profile(&self, label: &str, gpu: &Gpu) {
        if !self.profile {
            return;
        }
        let dir = self.results_dir();
        let report = dir.join(format!("profile_{label}.json"));
        let trace = dir.join(format!("profile_{label}.trace.json"));
        nextdoor_gpu::write_kernel_report(&report, gpu.spec(), gpu.profile())
            .expect("can write profile report");
        nextdoor_gpu::write_chrome_trace(&trace, gpu.spec(), &[(label, gpu.profile())])
            .expect("can write chrome trace");
        eprintln!(
            "profile: wrote {} and {}",
            report.display(),
            trace.display()
        );
    }

    /// Exports a serving tier's observability artifacts:
    /// `results/fleet_<label>.trace.json` (the chrome://tracing fleet
    /// timeline with one track per replica plus batcher/queue tracks, flow
    /// arrows into each device's per-SM lanes) and
    /// `results/metrics_<label>.json` (the deterministic metrics
    /// snapshot). `devices[r]` is replica `r`'s label and kernel profile —
    /// a single-session batcher passes its one device. No-op unless
    /// `--profile` was passed.
    pub fn export_fleet_obs(
        &self,
        label: &str,
        spec: &GpuSpec,
        tracer: &nextdoor_serve::Tracer,
        metrics: &nextdoor_serve::ServeMetrics,
        devices: &[(&str, &nextdoor_gpu::Profile)],
    ) {
        if !self.profile {
            return;
        }
        let dir = self.results_dir();
        let trace = dir.join(format!("fleet_{label}.trace.json"));
        let report = dir.join(format!("metrics_{label}.json"));
        nextdoor_serve::write_fleet_trace(&trace, spec, tracer, devices)
            .expect("can write fleet trace");
        metrics
            .write_json(&report, label)
            .expect("can write metrics report");
        eprintln!(
            "profile: wrote {} and {}",
            trace.display(),
            report.display()
        );
    }
}

/// How an application's initial samples are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppInit {
    /// One random root per sample (walks, k-hop).
    Walk,
    /// One random root per sample with a capped sample count (layer
    /// sampling's combined neighbourhoods are ~`m × avg_degree` vertices
    /// per sample, so its batches are far smaller in practice).
    LayerRoots,
    /// 100 random roots per sample (multi-dimensional walks).
    MultiRw,
    /// 64-vertex batches (importance sampling, MVS).
    Batch,
    /// Unions of clusters (ClusterGCN).
    Cluster,
}

impl BenchConfig {
    /// Builds initial samples of the given shape.
    pub fn init_for(&self, graph: &Csr, kind: AppInit) -> Vec<Vec<VertexId>> {
        match kind {
            AppInit::Walk => self.walk_init(graph),
            AppInit::LayerRoots => {
                initial_samples_random(graph, (self.samples / 4).max(64), 1, self.seed ^ 0x1001)
                    .expect("bench graphs are non-empty")
            }
            AppInit::MultiRw => self.multirw_init(graph),
            AppInit::Batch => self.batch_init(graph),
            AppInit::Cluster => {
                let clustering = nextdoor_graph::cluster_vertices(
                    graph,
                    (graph.num_vertices() / 64).max(8),
                    self.seed ^ 0x1004,
                )
                .expect("bench graphs have more vertices than clusters");
                nextdoor_apps::cluster_gcn_samples(
                    graph,
                    &clustering,
                    4,
                    (self.samples / 16).max(16),
                    self.seed ^ 0x1005,
                )
            }
        }
    }
}

/// The ten benchmark applications paired with their initial-sample shapes,
/// using the paper's parameters (§8 "Benchmarks") except where scale
/// dictates smaller collective budgets (documented in DESIGN.md).
pub fn benchmark_suite() -> Vec<(Box<dyn nextdoor_core::SamplingApp + Send>, AppInit)> {
    use nextdoor_apps as apps;
    vec![
        (Box::new(apps::DeepWalk::new(100)) as _, AppInit::Walk),
        (Box::new(apps::Ppr::new(0.01)) as _, AppInit::Walk),
        (
            Box::new(apps::Node2Vec::new(100, 2.0, 0.5)) as _,
            AppInit::Walk,
        ),
        (Box::new(apps::MultiRw::new(100)) as _, AppInit::MultiRw),
        (Box::new(apps::KHop::graphsage()) as _, AppInit::Walk),
        (Box::new(apps::Mvs::default()) as _, AppInit::Batch),
        (
            Box::new(apps::Layer::new(250, 500)) as _,
            AppInit::LayerRoots,
        ),
        (Box::new(apps::FastGcn::new(2, 64)) as _, AppInit::Batch),
        (Box::new(apps::Ladies::new(2, 64)) as _, AppInit::Batch),
        (Box::new(apps::ClusterGcn::new(64)) as _, AppInit::Cluster),
    ]
}

/// Prints a table header followed by an underline.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    let row = columns
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{row}");
    println!("{}", "-".repeat(row.len()));
}

/// Prints one row: a left-aligned label plus right-aligned cells.
pub fn row(label: &str, cells: &[String]) {
    let cells = cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{label:>14} {cells}");
}

/// Formats a speedup factor.
pub fn speedup(base_ms: f64, new_ms: f64) -> String {
    if new_ms <= 0.0 {
        "n/a".into()
    } else {
        format!("{:.2}x", base_ms / new_ms)
    }
}

/// Formats milliseconds.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}ms")
    } else {
        format!("{v:.2}ms")
    }
}

/// Splices `json` into the JSON object stored at `path` as its top-level
/// member `name` — how the serving benches share one `BENCH_serve.json`.
///
/// An existing member called `name` has its value replaced in place, so
/// re-running a bench never duplicates its section. Otherwise the member is
/// appended before the closing brace, or a fresh object is written when the
/// file is missing or empty.
///
/// # Errors
///
/// Any error writing `path`.
pub fn splice_bench_section(path: &Path, name: &str, json: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let members = jsonv::object_members(&existing).unwrap_or_default();
    let merged = match members.iter().find(|(k, _)| k == name) {
        Some((_, at)) => format!("{}{json}{}", &existing[..at.start], &existing[at.end..]),
        None => match existing.trim_end().strip_suffix('}').map(str::trim_end) {
            Some(h) if !h.is_empty() && !h.ends_with('{') => {
                format!("{h},\n  \"{name}\": {json}\n}}\n")
            }
            _ => format!("{{\n  \"{name}\": {json}\n}}\n"),
        },
    };
    std::fs::write(path, merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splices `(name, json)` pairs into `start` (`None`: no file) and
    /// returns the resulting document.
    fn spliced(tag: &str, start: Option<&str>, sections: &[(&str, &str)]) -> String {
        let path =
            std::env::temp_dir().join(format!("nextdoor_splice_{}_{tag}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        if let Some(text) = start {
            std::fs::write(&path, text).unwrap();
        }
        for (name, json) in sections {
            splice_bench_section(&path, name, json).unwrap();
        }
        let out = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(
            jsonv::parse(&out).is_ok(),
            "spliced document parses:\n{out}"
        );
        out
    }

    fn occurrences(doc: &str, name: &str) -> usize {
        let members = jsonv::object_members(doc).unwrap();
        members.iter().filter(|(k, _)| k == name).count()
    }

    #[test]
    fn splice_into_missing_or_empty_documents_starts_an_object() {
        let want = "{\n  \"shard\": {\"a\": 1}\n}\n";
        assert_eq!(spliced("missing", None, &[("shard", "{\"a\": 1}")]), want);
        assert_eq!(
            spliced("empty", Some("{}"), &[("shard", "{\"a\": 1}")]),
            want
        );
    }

    #[test]
    fn splice_appends_a_new_section_after_the_others() {
        let start = "{\n  \"workload\": \"w\",\n  \"chaos\": {\n    \"x\": 1\n  }\n}\n";
        let out = spliced("append", Some(start), &[("shard", "{\"a\": 1}")]);
        assert_eq!(
            out,
            "{\n  \"workload\": \"w\",\n  \"chaos\": {\n    \"x\": 1\n  },\n  \"shard\": {\"a\": 1}\n}\n"
        );
        assert_eq!(occurrences(&out, "shard"), 1);
        assert_eq!(occurrences(&out, "chaos"), 1);
    }

    #[test]
    fn splicing_the_same_section_twice_replaces_it() {
        let start = "{\n  \"workload\": \"w\",\n  \"tune\": {\"t\": 0}\n}\n";
        let out = spliced(
            "twice",
            Some(start),
            &[("shard", "{\"a\": 1}"), ("shard", "{\"a\": 2}")],
        );
        assert_eq!(occurrences(&out, "shard"), 1);
        assert_eq!(occurrences(&out, "tune"), 1);
        let doc = jsonv::parse(&out).unwrap();
        let a = doc.get("shard").and_then(|s| s.get("a"));
        assert_eq!(a, Some(&jsonv::Json::Num(2.0)));
        assert_eq!(
            out,
            "{\n  \"workload\": \"w\",\n  \"tune\": {\"t\": 0},\n  \"shard\": {\"a\": 2}\n}\n"
        );
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = BenchConfig::default();
        assert!(cfg.scale > 0.0);
        assert!(cfg.samples > 0);
        assert!(cfg.gpu.num_sms > 0);
        assert!(cfg.threads > 0);
    }

    #[test]
    fn graph_and_inits_respect_config() {
        let cfg = BenchConfig {
            samples: 128,
            ..BenchConfig::default()
        };
        let g = cfg.graph(Dataset::Ppi);
        assert!(g.is_weighted());
        let init = cfg.walk_init(&g);
        assert_eq!(init.len(), 128.max(g.num_vertices()));
        assert!(init.iter().all(|s| s.len() == 1));
        let mrw = cfg.multirw_init(&g);
        assert!(mrw.iter().all(|s| s.len() == 100));
        let b = cfg.batch_init(&g);
        assert!(b.iter().all(|s| s.len() == 64));
    }

    #[test]
    fn multi_gpu_slices_equal_one_device_for_every_suite_app() {
        use nextdoor_core::multi_gpu::run_nextdoor_multi_gpu_with_faults;
        use nextdoor_gpu::FaultPlan;
        // Each sample keeps its global index as its RNG key, so for every
        // suite app the concatenated slices are one device's samples at
        // 1–4 devices: clean, with device 0's graph upload out of memory,
        // and with device 1 lost mid-slice.
        let cfg = BenchConfig {
            scale: 0.002,
            samples: 64,
            ..BenchConfig::default()
        };
        let graph = cfg.graph(Dataset::Ppi);
        for (app, kind) in benchmark_suite() {
            let init = cfg.init_for(&graph, kind);
            let mut gpu = Gpu::new(cfg.gpu.clone());
            let single = nextdoor_core::run_nextdoor(&mut gpu, &graph, app.as_ref(), &init, 3)
                .expect("single device");
            for gpus in 1..=4 {
                let mut scripts = vec![vec![], vec![FaultPlan::new().fail_alloc(0)]];
                if gpus > 1 {
                    scripts.push(vec![
                        FaultPlan::new(),
                        FaultPlan::new().lose_device_at_launch(2),
                    ]);
                }
                for plans in &scripts {
                    let multi = run_nextdoor_multi_gpu_with_faults(
                        &cfg.gpu,
                        gpus,
                        &graph,
                        app.as_ref(),
                        &init,
                        3,
                        plans,
                    )
                    .expect("a fault on one device is recovered");
                    assert_eq!(multi.report.degraded_to_out_of_core, plans.len() == 1);
                    assert_eq!(multi.report.devices_lost, plans.len() / 2);
                    let sliced: Vec<Vec<VertexId>> = multi
                        .per_gpu
                        .iter()
                        .flat_map(|r| r.store.final_samples())
                        .collect();
                    assert!(
                        sliced == single.store.final_samples(),
                        "{} on {gpus} GPUs with {plans:?}",
                        app.name()
                    );
                }
            }
        }
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup(10.0, 2.0), "5.00x");
        assert_eq!(speedup(10.0, 0.0), "n/a");
    }
}
