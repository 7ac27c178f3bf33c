//! The repository benchmark: one workload per process, two clocks
//! (simulated device time and host wall time), correctness checked on
//! every run, and a traced mode that breaks host time down by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload deepwalk --seed 1 --seconds 15 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, metrics and layer map.

mod layers;
mod offline;
mod report;
mod serve;
mod shard;
mod trace;
mod traffic;

use report::{median, Values, END_TO_END, PER_LAYER};
use std::time::Instant;
use trace::Tracer;

/// Fewest passes a run makes, however long each takes: one warm-up pass
/// whose host time is not counted, then enough for host figures to be
/// medians.
const MIN_PASSES: usize = 4;

/// What one pass of a workload produced.
pub struct Pass<O> {
    /// Host seconds spent inside the system's public calls while measuring.
    pub host_s: f64,
    /// Samples delivered.
    pub samples: u64,
    /// Operations attempted (runs, requests sent).
    pub attempted: u64,
    /// Operations that ended in an error other than the typed overload
    /// outcomes the workload provokes on purpose.
    pub failed: u64,
    /// Simulated-clock figures and counters; identical on every pass.
    pub sim: Values,
    /// Host-time figures of this pass.
    pub host: Values,
    /// Hash of every output of the pass; identical on every pass.
    pub digest: u64,
    /// Lines describing the pass, printed once.
    pub notes: Vec<String>,
    /// What the correctness check needs (kept from the first pass only).
    pub output: O,
}

/// One benchmark workload.
pub trait Workload {
    type State;
    type Output;
    /// Generates inputs and builds the system; this is `setup_s`.
    fn setup(&self, tr: &mut Tracer) -> Result<Self::State, String>;
    /// Runs the measured phase once.
    fn measure(&self, st: &mut Self::State, tr: &mut Tracer) -> Result<Pass<Self::Output>, String>;
    /// Checks the first pass's outputs against the reference engines and
    /// the conservation rules.
    fn check(&self, st: &Self::State, out: &Self::Output, tr: &mut Tracer) -> Result<(), String>;
    /// Input and traffic properties to record beside the results.
    fn describe(&self, st: &Self::State) -> Vec<(&'static str, String)>;
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The run's result: the JSON line's fields plus the printed extras.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Values,
    per_layer: Values,
}

/// Runs passes of `w` for `opts.seconds` of measured wall time (at least
/// [`MIN_PASSES`]), then checks the first pass. Every pass must repeat the
/// first bit for bit; the first pass warms caches and allocator up, and
/// its host time is not counted.
///
/// In the traced run, odd passes run traced and even passes untraced, so
/// `trace.overhead_frac` compares passes interleaved in time.
fn run<W: Workload>(w: &W, opts: &Opts, t_start: Instant) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false, t_start);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let (mut untraced_host, mut traced_host) = (Vec::new(), Vec::new());
    let mut traced_layers: Vec<Values> = Vec::new();
    let mut first: Option<(W::State, Pass<W::Output>)> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut measured_s = 0.0;
    let mut rss = 0.0;
    let mut i = 0;
    while i < MIN_PASSES || measured_s < opts.seconds {
        let traced = opts.trace && i % 2 == 1;
        tr.set_enabled(traced);
        let t0 = Instant::now();
        tr.open("bench", "setup");
        let mut st = w.setup(&mut tr)?;
        tr.close();
        // The first set-up counts from process start.
        setups.push(if i == 0 { t_start } else { t0 }.elapsed().as_secs_f64());
        let t1 = Instant::now();
        tr.open("bench", "measure");
        let pass = w.measure(&mut st, &mut tr)?;
        tr.close();
        measured_s += t1.elapsed().as_secs_f64();
        attempted += pass.attempted;
        failed += pass.failed;
        if traced {
            traced_host.push(pass.host_s);
            traced_layers.push(pass.host.clone());
        } else if i > 0 {
            untraced_host.push(pass.host_s);
            rates.push(pass.samples as f64 / pass.host_s);
        }
        eprintln!(
            "pass {i}{}: setup {:.3} s, measured {:.3} s host in calls, {} samples",
            match (i, traced) {
                (0, _) => " (warm-up)",
                (_, true) => " (traced)",
                _ => "",
            },
            setups[i],
            pass.host_s,
            pass.samples
        );
        match &first {
            None => {
                // Peak memory of one set-up and one pass; later passes
                // only add allocator fragmentation that varies run to run.
                rss = report::peak_rss_mb();
                first = Some((st, pass));
            }
            Some((_, p0)) => {
                if pass.digest != p0.digest || pass.sim != p0.sim {
                    return Err(format!(
                        "pass {i} is not a bit-identical repeat of pass 0 \
                         (digest {:016x} vs {:016x})",
                        pass.digest, p0.digest
                    ));
                }
            }
        }
        i += 1;
    }
    let (st0, p0) = first.expect("at least one pass ran");
    tr.set_enabled(opts.trace);
    tr.open("bench", "check");
    let checked = w.check(&st0, &p0.output, &mut tr);
    tr.close();
    if let Err(e) = &checked {
        eprintln!("CHECK FAILED: {e}");
    }

    println!(
        "workload {} seed {} nproc {} sim_threads {} passes {i} ({} untraced, {} traced)",
        opts.workload,
        opts.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        traffic::SIM_THREADS,
        untraced_host.len(),
        traced_host.len(),
    );
    for (k, v) in w.describe(&st0) {
        println!("  input {k}: {v}");
    }
    for line in &p0.notes {
        println!("  {line}");
    }

    let mut e2e = Values::default();
    e2e.put("setup_s", median(&setups));
    e2e.put("host_peak_rss_mb", rss);
    for (name, _) in END_TO_END {
        if let Some(v) = p0.sim.0.get(name) {
            e2e.put(name, *v);
        }
    }
    let mut layers = p0.sim.clone();
    layers.put("host_samples_per_s", median(&rates));
    for m in PER_LAYER {
        let v: Vec<f64> = traced_layers
            .iter()
            .filter_map(|h| h.0.get(m.name).copied())
            .collect();
        if !v.is_empty() {
            layers.put(m.name, median(&v));
        }
    }
    if !traced_host.is_empty() {
        layers.put(
            "trace.overhead_frac",
            median(&traced_host) / median(&untraced_host) - 1.0,
        );
        print_trace(&tr, &opts.workload, opts.seed)?;
    }
    Ok(Outcome {
        correct: checked.is_ok(),
        attempted,
        failed,
        end_to_end: e2e,
        per_layer: layers,
    })
}

/// Prints the per-layer self-time table and writes the chrome trace.
fn print_trace(tr: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    println!("host self time by layer (traced passes and check):");
    println!(
        "  {:<16} {:<28} {:>8} {:>12} {:>12}",
        "layer", "call", "calls", "total_s", "self_s"
    );
    for ((layer, call), (n, total, own)) in tr.self_times() {
        println!("  {layer:<16} {call:<28} {n:>8} {total:>12.6} {own:>12.6}");
    }
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    std::fs::write(&path, tr.chrome_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("chrome trace: {}", path.display());
    Ok(())
}

fn main() {
    let t_start = Instant::now();
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload deepwalk|ladies|serve|shard --seed <n> --seconds <s> --trace 0|1");
            std::process::exit(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "deepwalk" => run(&offline::Offline::deepwalk(opts.seed), &opts, t_start),
        "ladies" => run(&offline::Offline::ladies(opts.seed), &opts, t_start),
        "serve" => run(&serve::Serve::new(opts.seed), &opts, t_start),
        "shard" => run(&shard::Shard::new(opts.seed), &opts, t_start),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let mut metrics = Vec::new();
    if opts.trace {
        println!("per-layer metrics (moves -> on workloads; unchanged on):");
        for m in PER_LAYER {
            let v = outcome.per_layer.get(m.name);
            println!(
                "  {:<34} {:>16.6} {:<6} -> {} on {}{}",
                m.name,
                v,
                m.unit,
                m.moves,
                m.on,
                if m.unchanged.is_empty() {
                    String::new()
                } else {
                    format!("; unchanged on {}", m.unchanged)
                }
            );
            metrics.push((m.name, v, m.unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = outcome.end_to_end.get(name);
            println!("  {name:<20} {v:>16.6} {unit}");
            metrics.push((name, v, unit));
        }
    }
    let body = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
