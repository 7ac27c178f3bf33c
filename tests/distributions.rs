//! Statistical correctness of the samplers: chi-squared goodness-of-fit of
//! per-step transit-neighbour frequencies against the *exact* target
//! distribution of each application, on small fixed graphs where that
//! target can be computed in closed form.
//!
//! Every test runs against both the CPU oracle and the NextDoor engine.
//! Because all randomness is keyed by `(seed, sample, step, slot)`, the
//! empirical counts are a deterministic function of the seed list, so these
//! tests are *not* flaky: the significance threshold (chi-squared critical
//! value at alpha = 0.001) guards against implementation bias, not against
//! re-run noise.

use nextdoor::apps::{DeepWalk, KHop, Ladies, Layer, Node2Vec};
use nextdoor::core::{
    run_cpu, run_nextdoor, SampleStore, SamplingApp, ShardedSampler, NULL_VERTEX,
};
use nextdoor::gpu::{Gpu, GpuSpec};
use nextdoor::graph::{Csr, GraphBuilder, VertexId};
use std::collections::BTreeMap;

/// Chi-squared critical values at alpha = 0.001 for the degrees of freedom
/// used below.
fn chi2_critical(df: usize) -> f64 {
    match df {
        2 => 13.816,
        3 => 16.266,
        4 => 18.467,
        7 => 24.322,
        _ => panic!("no critical value tabulated for df = {df}"),
    }
}

/// Pearson's chi-squared statistic of observed counts against exact
/// per-category probabilities.
fn chi_squared(counts: &[u64], probs: &[f64]) -> f64 {
    assert_eq!(counts.len(), probs.len());
    let n: u64 = counts.iter().sum();
    assert!(n > 0, "no observations");
    counts
        .iter()
        .zip(probs)
        .map(|(&c, &p)| {
            let e = n as f64 * p;
            assert!(e >= 5.0, "expected count {e:.1} too small for chi-squared");
            (c as f64 - e).powi(2) / e
        })
        .sum()
}

/// The exact law of a capped rejection sampler: `probes` rounds draw a
/// candidate position uniformly from `d = accept.len()` and accept position
/// `i` with probability `accept[i]`; if every round rejects, a final
/// unconditional uniform draw is used. Returns the per-position law.
fn rejection_law(accept: &[f64], probes: u32) -> Vec<f64> {
    let d = accept.len() as f64;
    let q: f64 = accept.iter().sum::<f64>() / d;
    let fallthrough = (1.0 - q).powi(probes as i32);
    accept
        .iter()
        .map(|&a| (a / d) * (1.0 - fallthrough) / q + fallthrough / d)
        .collect()
}

type AppFactory = dyn Fn() -> Box<dyn SamplingApp + Send>;
type Runner = dyn Fn(&Csr, &AppFactory, &[Vec<VertexId>], u64) -> SampleStore;

/// Both execution paths under test: the sequential CPU oracle and the full
/// transit-parallel NextDoor engine on the simulated GPU.
fn runners() -> Vec<(&'static str, Box<Runner>)> {
    vec![
        (
            "cpu",
            Box::new(
                |g: &Csr, app: &AppFactory, init: &[Vec<VertexId>], seed: u64| {
                    run_cpu(g, app().as_ref(), init, seed).unwrap().store
                },
            ) as Box<Runner>,
        ),
        (
            "nextdoor",
            Box::new(
                |g: &Csr, app: &AppFactory, init: &[Vec<VertexId>], seed: u64| {
                    let mut gpu = Gpu::new(GpuSpec::small());
                    run_nextdoor(&mut gpu, g, app().as_ref(), init, seed)
                        .unwrap()
                        .store
                },
            ),
        ),
    ]
}

/// The sharded engine at 2 and 3 shards: same draws, routed through
/// partition-aware super-steps with cross-shard hand-off. Only individual
/// transit sampling is shardable, so these runners join the `runners()`
/// list for the k-hop and random-walk laws, not the collective ones.
fn sharded_runners() -> Vec<(&'static str, Box<Runner>)> {
    [("sharded-2", 2usize), ("sharded-3", 3usize)]
        .into_iter()
        .map(|(name, shards)| {
            let runner: Box<Runner> = Box::new(
                move |g: &Csr, app: &AppFactory, init: &[Vec<VertexId>], seed: u64| {
                    let mut s =
                        ShardedSampler::new(GpuSpec::small(), g.clone(), app(), shards, 0x5AD0)
                            .unwrap();
                    s.query(init, seed).unwrap().per_query.swap_remove(0)
                },
            );
            (name, runner)
        })
        .collect()
}

const SEEDS: [u64; 5] = [11, 23, 47, 101, 9001];

/// Tallies the step-`step` values of every sample into per-vertex counts.
fn count_step_vertices(store: &SampleStore, step: usize) -> BTreeMap<VertexId, u64> {
    let mut counts = BTreeMap::new();
    for &v in &store.step_values(step).values {
        if v != NULL_VERTEX {
            *counts.entry(v).or_insert(0u64) += 1;
        }
    }
    counts
}

#[test]
fn khop_draws_are_uniform_over_neighbours() {
    // Root 0 has out-degree 8; a 1-hop draw must be uniform over 1..=8.
    let mut b = GraphBuilder::new(9);
    for v in 1..=8 {
        b.push_edge(0, v);
    }
    let g = b.build().unwrap();
    let init: Vec<Vec<VertexId>> = (0..2000).map(|_| vec![0]).collect();
    let probs = vec![1.0 / 8.0; 8];
    for (name, run) in runners().into_iter().chain(sharded_runners()) {
        let mut counts = BTreeMap::new();
        for seed in SEEDS {
            let res = run(&g, &|| Box::new(KHop::new(vec![1])), &init, seed);
            for (v, c) in count_step_vertices(&res, 0) {
                *counts.entry(v).or_insert(0u64) += c;
            }
        }
        let obs: Vec<u64> = (1..=8)
            .map(|v| counts.get(&v).copied().unwrap_or(0))
            .collect();
        let chi2 = chi_squared(&obs, &probs);
        assert!(
            chi2 < chi2_critical(7),
            "{name}: k-hop chi2 = {chi2:.2} over critical {} (counts {obs:?})",
            chi2_critical(7)
        );
    }
}

#[test]
fn layer_draws_are_uniform_over_combined_neighbourhood() {
    // Batch {0, 9}: the combined neighbourhood is the concatenation
    // [1, 2, 3] ++ [2, 3, 4, 5], so vertices 2 and 3 carry twice the mass
    // of 1, 4 and 5. Layer sampling draws positions uniformly.
    let g = GraphBuilder::new(10)
        .edge(0, 1)
        .edge(0, 2)
        .edge(0, 3)
        .edge(9, 2)
        .edge(9, 3)
        .edge(9, 4)
        .edge(9, 5)
        .build()
        .unwrap();
    let init: Vec<Vec<VertexId>> = (0..1500).map(|_| vec![0, 9]).collect();
    let probs = [1.0, 2.0, 2.0, 1.0, 1.0].map(|m| m / 7.0);
    for (name, run) in runners() {
        let mut counts = BTreeMap::new();
        for seed in SEEDS {
            // step_size 4, max_size 6: step 0 draws 4 vertices per batch of
            // 2, then the sample is full — only step 0 is analysed.
            let res = run(&g, &|| Box::new(Layer::new(4, 6)), &init, seed);
            for (v, c) in count_step_vertices(&res, 0) {
                *counts.entry(v).or_insert(0u64) += c;
            }
        }
        let obs: Vec<u64> = (1..=5)
            .map(|v| counts.get(&v).copied().unwrap_or(0))
            .collect();
        let chi2 = chi_squared(&obs, &probs);
        assert!(
            chi2 < chi2_critical(4),
            "{name}: layer chi2 = {chi2:.2} over critical {} (counts {obs:?})",
            chi2_critical(4)
        );
    }
}

#[test]
fn ladies_draws_follow_degree_biased_rejection_law() {
    // Root 0's neighbourhood holds candidates of out-degree 2, 8, 24 and 0.
    // LADIES accepts a uniformly drawn candidate `v` with probability
    // max(deg / (deg + 8), 0.05) for up to 8 probes, then falls back to a
    // uniform pick — an exactly computable law.
    let mut b = GraphBuilder::new(30);
    for v in 1..=4 {
        b.push_edge(0, v);
    }
    for t in 0..2 {
        b.push_edge(1, 5 + t);
    }
    for t in 0..8 {
        b.push_edge(2, 5 + t);
    }
    for t in 0..24 {
        b.push_edge(3, 5 + t);
    }
    let g = b.build().unwrap();
    let accept: Vec<f64> = [2.0, 8.0, 24.0, 0.0]
        .iter()
        .map(|&deg: &f64| (deg / (deg + 8.0)).max(0.05))
        .collect();
    let probs = rejection_law(&accept, 8);
    let init: Vec<Vec<VertexId>> = (0..800).map(|_| vec![0]).collect();
    for (name, run) in runners() {
        let mut counts = BTreeMap::new();
        for seed in SEEDS {
            let res = run(&g, &|| Box::new(Ladies::new(1, 8)), &init, seed);
            for (v, c) in count_step_vertices(&res, 0) {
                *counts.entry(v).or_insert(0u64) += c;
            }
        }
        let obs: Vec<u64> = (1..=4)
            .map(|v| counts.get(&v).copied().unwrap_or(0))
            .collect();
        let chi2 = chi_squared(&obs, &probs);
        assert!(
            chi2 < chi2_critical(3),
            "{name}: LADIES chi2 = {chi2:.2} over critical {} (counts {obs:?}, law {probs:?})",
            chi2_critical(3)
        );
    }
}

#[test]
fn deepwalk_draws_follow_weight_biased_rejection_law() {
    // Edge weights 1, 2 and 4 out of root 0: the rejection sampler accepts
    // with probability w / max_w over up to 24 probes.
    let g = GraphBuilder::new(4)
        .weighted_edge(0, 1, 1.0)
        .weighted_edge(0, 2, 2.0)
        .weighted_edge(0, 3, 4.0)
        .build()
        .unwrap();
    let probs = rejection_law(&[0.25, 0.5, 1.0], 24);
    let init: Vec<Vec<VertexId>> = (0..2000).map(|_| vec![0]).collect();
    for (name, run) in runners().into_iter().chain(sharded_runners()) {
        let mut counts = BTreeMap::new();
        for seed in SEEDS {
            let res = run(&g, &|| Box::new(DeepWalk::new(1)), &init, seed);
            for (v, c) in count_step_vertices(&res, 0) {
                *counts.entry(v).or_insert(0u64) += c;
            }
        }
        let obs: Vec<u64> = (1..=3)
            .map(|v| counts.get(&v).copied().unwrap_or(0))
            .collect();
        let chi2 = chi_squared(&obs, &probs);
        assert!(
            chi2 < chi2_critical(2),
            "{name}: DeepWalk chi2 = {chi2:.2} over critical {} (counts {obs:?}, law {probs:?})",
            chi2_critical(2)
        );
    }
}

/// node2vec step-1 law conditioned on the walk being at transit 1 with
/// previous vertex 0: candidate 0 is the return edge (weight `p`), 9 is a
/// common neighbour of 0 (weight `1/q`), 2 is neither (weight 1). The
/// rejection sampler normalises by `max(p, 1, 1/q)`.
fn node2vec_transition_counts(p: f32, q: f32) -> (Vec<f64>, Vec<(String, Vec<u64>)>) {
    let g = GraphBuilder::new(10)
        .edge(0, 1)
        .edge(0, 9)
        .edge(1, 0)
        .edge(1, 2)
        .edge(1, 9)
        .edge(9, 0)
        .build()
        .unwrap();
    let upper = f64::from(p.max(1.0).max(1.0 / q));
    let accept: Vec<f64> = [f64::from(p), 1.0, f64::from(1.0 / q)]
        .iter()
        .map(|w| w / upper)
        .collect();
    let probs = rejection_law(&accept, 24);
    let init: Vec<Vec<VertexId>> = (0..3000).map(|_| vec![0]).collect();
    let mut all = Vec::new();
    for (name, run) in runners() {
        // Counts for transitions 1 -> {0, 2, 9}.
        let mut counts = [0u64; 3];
        for seed in SEEDS {
            let res = run(&g, &move || Box::new(Node2Vec::new(2, p, q)), &init, seed);
            for s in res.final_samples() {
                // Condition on the walk being 0 -> 1 after step 0; the
                // step-1 RNG stream is keyed independently of step 0, so
                // this filter does not bias the transition law.
                if s.len() >= 3 && s[1] == 1 {
                    match s[2] {
                        0 => counts[0] += 1,
                        2 => counts[1] += 1,
                        9 => counts[2] += 1,
                        other => panic!("impossible transition 1 -> {other}"),
                    }
                }
            }
        }
        all.push((name.to_string(), counts.to_vec()));
    }
    (probs, all)
}

#[test]
fn node2vec_transitions_follow_pq_matrix() {
    for (p, q) in [(2.0f32, 0.5f32), (0.5, 4.0)] {
        let (probs, per_runner) = node2vec_transition_counts(p, q);
        for (name, counts) in per_runner {
            let chi2 = chi_squared(&counts, &probs);
            assert!(
                chi2 < chi2_critical(2),
                "{name}: node2vec(p={p}, q={q}) chi2 = {chi2:.2} over critical {} \
                 (counts {counts:?}, law {probs:?})",
                chi2_critical(2)
            );
        }
    }
}
