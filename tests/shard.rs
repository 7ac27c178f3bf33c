//! Shard-equivalence suite: the sharded engine must be a pure
//! re-scheduling of the single-device engine.
//!
//! The contract under test, end to end:
//!
//! * **bit-identity**: for any graph, shard count and individual-transit
//!   app, `ShardedSampler::query` produces a store bit-identical to
//!   `run_nextdoor` of the same `(graph, app, init, seed)` — partitioning
//!   and cross-shard hand-off may change *where* a draw executes, never
//!   its value (property-based, below);
//! * **conservation**: every walker hand-off is visible exactly once in
//!   the super-step marks, the serving-tier `Handoff` spans, the metrics
//!   registry and the `FleetReport` — the four views agree to the walker;
//! * **typed degradation**: queries homed on a lost shard are shed with
//!   `ServeError::ShardLost` while survivors keep serving, and ones homed
//!   on a shard whose breaker is open with `ServeError::Overloaded`;
//! * **typed rejection**: an app a shard cannot run bit-identically is
//!   refused at construction with `NextDoorError::ShardUnsupported`.

use proptest::prelude::*;

use nextdoor::apps::{DeepWalk, KHop, Layer, Node2Vec};
use nextdoor::core::api::{NextCtx, Steps};
use nextdoor::core::session::SessionQuery;
use nextdoor::core::{run_nextdoor, NextDoorError, SampleStore, SamplingApp, ShardedSampler};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::gen::{rmat, RmatParams};
use nextdoor::graph::{Csr, GraphBuilder, VertexId};
use nextdoor::serve::{BreakerConfig, ServeError, ShardPoolConfig, ShardedPool, SpanKind};

/// Everything a query observes of its own samples.
fn digest(store: &SampleStore) -> String {
    let edges: Vec<_> = (0..store.num_samples())
        .map(|s| store.edges_of(s).to_vec())
        .collect();
    format!("samples: {:?}\nedges: {edges:?}\n", store.final_samples())
}

/// An arbitrary small undirected graph over 64 vertices.
fn arb_graph() -> impl Strategy<Value = Csr> {
    proptest::collection::vec((0u32..64, 0u32..64), 1..256).prop_map(|edges| {
        let mut b = GraphBuilder::new(64).undirected(true);
        for (s, d) in edges {
            b.push_edge(s, d);
        }
        b.build().expect("endpoints in range")
    })
}

/// A fault script without device loss, shaped like the property suite's:
/// an optional failed allocation and an optional transient kernel fault.
fn arb_transient_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::weighted(0.5, 0u64..5),
        proptest::option::weighted(0.5, 0u64..12),
    )
        .prop_map(|(alloc, transient)| {
            let mut plan = FaultPlan::new();
            if let Some(i) = alloc {
                plan = plan.fail_alloc(i);
            }
            if let Some(i) = transient {
                plan = plan.transient_at_launch(i);
            }
            plan
        })
}

/// The individual-transit apps the sharded engine supports.
fn arb_app() -> impl Strategy<Value = usize> {
    0usize..3
}

fn make_app(idx: usize) -> Box<dyn SamplingApp + Send> {
    match idx {
        0 => Box::new(KHop::new(vec![2, 1])),
        1 => Box::new(KHop::new(vec![3])),
        _ => Box::new(DeepWalk::new(3)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_runs_are_bit_identical_to_single_device(
        g in arb_graph(),
        shards in 1usize..=4,
        app_idx in arb_app(),
        seed in 0u64..1000,
        nroots in 1usize..12,
        placement_seed in 0u64..100,
    ) {
        let init: Vec<Vec<VertexId>> =
            (0..nroots).map(|i| vec![(i as u32 * 7 + seed as u32) % 64]).collect();
        let mut sharded = ShardedSampler::new(
            GpuSpec::small(),
            g.clone(),
            make_app(app_idx),
            shards,
            placement_seed,
        )
        .unwrap();
        let out = sharded.query(&init, seed).unwrap();
        let mut gpu = Gpu::new(GpuSpec::small());
        let solo = run_nextdoor(&mut gpu, &g, make_app(app_idx).as_ref(), &init, seed).unwrap();
        prop_assert_eq!(digest(&out.per_query[0]), digest(&solo.store));
        prop_assert!(out.report.is_clean());
        prop_assert_eq!(out.walkers_lost, 0);
    }

    #[test]
    fn fused_sharded_batches_slice_back_to_standalone_queries(
        g in arb_graph(),
        shards in 2usize..=3,
        seeds in proptest::collection::vec(0u64..500, 2..5),
    ) {
        let queries: Vec<SessionQuery> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| SessionQuery {
                init: (0..4).map(|s| vec![(s * 11 + i as u32) % 64]).collect(),
                seed,
            })
            .collect();
        let mut sharded =
            ShardedSampler::new(GpuSpec::small(), g.clone(), make_app(0), shards, 7).unwrap();
        let fused = sharded.query_fused(&queries).unwrap();
        for (q, got) in queries.iter().zip(&fused.per_query) {
            let mut solo =
                ShardedSampler::new(GpuSpec::small(), g.clone(), make_app(0), shards, 7).unwrap();
            let want = solo.query(&q.init, q.seed).unwrap();
            prop_assert_eq!(digest(got), digest(&want.per_query[0]));
        }
    }

    #[test]
    fn faulty_shard_retries_to_single_device_samples(
        g in arb_graph(),
        shards in 2usize..=3,
        faulty in 0usize..3,
        app_idx in arb_app(),
        seed in 0u64..1000,
        plan in arb_transient_plan(),
    ) {
        // One failed allocation and one transient fault are always within
        // the retry budget: the run recovers bit-identically, and every
        // fault the shard observed cost at least one step retry.
        let init: Vec<Vec<VertexId>> =
            (0..8).map(|i| vec![(i * 7 + seed as u32) % 64]).collect();
        let faulty = faulty % shards;
        let mut sharded =
            ShardedSampler::new(GpuSpec::small(), g.clone(), make_app(app_idx), shards, 5)
                .unwrap();
        sharded.schedule_faults(faulty, plan);
        let out = sharded.query(&init, seed).unwrap();
        let mut gpu = Gpu::new(GpuSpec::small());
        let solo = run_nextdoor(&mut gpu, &g, make_app(app_idx).as_ref(), &init, seed).unwrap();
        prop_assert_eq!(digest(&out.per_query[0]), digest(&solo.store));
        prop_assert_eq!(out.walkers_lost, 0);
        let r = &out.shard_reports[faulty];
        if r.alloc_faults + r.transient_faults > 0 {
            prop_assert!(r.step_retries > 0, "fired plan without a retry: {:?}", r);
        }
        prop_assert_eq!(out.report.step_retries, r.step_retries);
    }
}

fn walk_fleet(shards: usize) -> (Csr, Vec<Vec<VertexId>>, ShardedSampler) {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let init: Vec<Vec<VertexId>> = (0..16).map(|i| vec![i * 13 % 256]).collect();
    let sampler = ShardedSampler::new(
        GpuSpec::small(),
        graph.clone(),
        Box::new(DeepWalk::new(5)),
        shards,
        7,
    )
    .unwrap();
    (graph, init, sampler)
}

#[test]
fn failed_seed_broadcast_upload_is_retried() {
    let (graph, init, mut sharded) = walk_fleet(2);
    // The shard's next allocation is the seed-broadcast upload.
    sharded.schedule_faults(1, FaultPlan::new().fail_alloc(0));
    let out = sharded.query(&init, 42).unwrap();
    assert_eq!(out.shard_reports[1].alloc_faults, 1);
    assert_eq!(out.shard_reports[1].step_retries, 1);
    assert!(out.shard_reports[0].is_clean());
    let mut gpu = Gpu::new(GpuSpec::small());
    let solo = run_nextdoor(&mut gpu, &graph, &DeepWalk::new(5), &init, 42).unwrap();
    assert_eq!(digest(&out.per_query[0]), digest(&solo.store));
}

#[test]
fn shard_step_faulting_past_the_budget_is_a_kernel_fault() {
    let (_, init, mut sharded) = walk_fleet(2);
    // Every launch of the home shard faults for long enough to cover the
    // first step's initial attempt and all three retries.
    let home = sharded.home_shard(&init[0]);
    let mut plan = FaultPlan::new();
    for i in 0..512 {
        plan = plan.transient_at_launch(i);
    }
    sharded.schedule_faults(home, plan);
    let err = sharded.query(&init, 42).unwrap_err();
    assert!(
        matches!(
            err,
            NextDoorError::KernelFault {
                step: 0,
                retries: 3
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn mixed_width_fused_batch_accounts_like_its_parts() {
    // A fresh 3-shard fleet with a transient fault on one shard runs a
    // batch of widths {1, 2}: two width classes, one fleet clock, and
    // batch telemetry that sums exactly what the classes did.
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let fleet = || ShardedSampler::new(GpuSpec::small(), graph.clone(), make_app(0), 3, 7).unwrap();
    let queries: Vec<SessionQuery> = [1usize, 2, 1, 2]
        .iter()
        .enumerate()
        .map(|(i, &w)| SessionQuery {
            init: (0..6)
                .map(|s| vec![(s * 23 + i as u32 * 5) % 256; w])
                .collect(),
            seed: 300 + i as u64,
        })
        .collect();
    let mut sharded = fleet();
    sharded.schedule_faults(1, FaultPlan::new().transient_at_launch(3));
    let fused = sharded.query_fused(&queries).unwrap();

    assert_eq!(fused.launches, 2, "widths {{1, 2}} form two classes");
    assert!(
        fused.report.transient_faults > 0,
        "the scheduled fault fired"
    );
    let mut merged = nextdoor::core::FaultReport::default();
    for r in &fused.shard_reports {
        merged.merge(r);
    }
    assert_eq!(fused.report, merged);
    assert_eq!(fused.elapsed_ms, sharded.clock_ms());
    let mark_walkers: u64 = fused
        .super_steps
        .iter()
        .flat_map(|m| m.handoffs.iter().map(|h| h.walkers))
        .sum();
    assert_eq!(fused.handoffs, mark_walkers);

    assert_eq!(fused.per_query.len(), queries.len());
    for (q, got) in queries.iter().zip(&fused.per_query) {
        let alone = fleet().query_fused(std::slice::from_ref(q)).unwrap();
        assert_eq!(digest(got), digest(&alone.per_query[0]));
        let mut gpu = Gpu::new(GpuSpec::small());
        let solo = run_nextdoor(&mut gpu, &graph, make_app(0).as_ref(), &q.init, q.seed).unwrap();
        assert_eq!(digest(got), digest(&solo.store));
    }
}

#[test]
fn handoffs_agree_across_marks_spans_metrics_and_report() {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let mut pool = ShardedPool::new(
        GpuSpec::small(),
        graph,
        Box::new(KHop::new(vec![3, 2])),
        ShardPoolConfig {
            num_shards: 4,
            ..ShardPoolConfig::default()
        },
    )
    .unwrap();
    let queries: Vec<SessionQuery> = (0..6)
        .map(|i| SessionQuery {
            init: (0..8).map(|s| vec![(s * 29 + i * 3) % 256]).collect(),
            seed: 70 + u64::from(i),
        })
        .collect();
    let d = pool.dispatch(&queries).unwrap();
    assert!(d.handoffs > 0, "4 shards over an R-MAT graph must hand off");

    let span_walkers: u64 = pool
        .trace()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Handoff)
        .map(|s| s.batch_size.expect("handoff spans carry walker counts") as u64)
        .sum();
    let report = pool.report();
    assert_eq!(span_walkers, d.handoffs, "spans vs dispatch");
    assert_eq!(report.handoffs, d.handoffs, "report vs dispatch");
    assert_eq!(
        pool.metrics().sim.handoffs,
        d.handoffs,
        "metrics vs dispatch"
    );
    assert_eq!(
        report.handoff_bytes,
        d.handoffs * nextdoor::core::sharded::HANDOFF_BYTES_PER_WALKER,
        "every hand-off is charged the same wire cost"
    );
    assert_eq!(
        pool.metrics().sim.super_steps,
        report.super_steps,
        "metrics and report agree on super-steps"
    );
    assert!(
        pool.trace().count(SpanKind::Handoff) + pool.trace().count(SpanKind::SuperStep) > 0,
        "the trace carries super-step and hand-off spans"
    );
}

/// A one-step walk that asks for unique neighbours per step.
struct UniqueWalk;

impl SamplingApp for UniqueWalk {
    fn name(&self) -> &'static str {
        "unique-walk"
    }
    fn steps(&self) -> Steps {
        Steps::Fixed(1)
    }
    fn sample_size(&self, _step: usize) -> usize {
        2
    }
    fn unique(&self, _step: usize) -> bool {
        true
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

type MakeApp = fn() -> Box<dyn SamplingApp + Send>;

#[test]
fn apps_a_shard_cannot_run_are_rejected_typed_at_construction() {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let cases: [(&str, MakeApp); 3] = [
        ("collective", || Box::new(Layer::new(4, 8))),
        ("per-step unique", || Box::new(UniqueWalk)),
        ("reads other rows", || Box::new(Node2Vec::new(10, 2.0, 0.5))),
    ];
    for (case, app) in cases {
        let sampler = ShardedSampler::new(GpuSpec::small(), graph.clone(), app(), 2, 7);
        assert!(
            matches!(sampler.err(), Some(NextDoorError::ShardUnsupported { .. })),
            "{case}: ShardedSampler::new must reject"
        );
        let pool = ShardedPool::new(
            GpuSpec::small(),
            graph.clone(),
            app(),
            ShardPoolConfig::default(),
        );
        assert!(
            matches!(pool.err(), Some(NextDoorError::ShardUnsupported { .. })),
            "{case}: ShardedPool::new must reject"
        );
    }
}

#[test]
fn open_shard_breaker_sheds_overloaded_then_probes_and_recovers() {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let mut pool = ShardedPool::new(
        GpuSpec::small(),
        graph,
        Box::new(DeepWalk::new(5)),
        ShardPoolConfig {
            num_shards: 3,
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_ms: 0.5,
            },
            ..ShardPoolConfig::default()
        },
    )
    .unwrap();
    let homed_on = |pool: &ShardedPool, shard: usize| {
        (0..256u32)
            .find(|&v| pool.sampler().owner_of(v) == shard)
            .expect("every shard owns vertices")
    };
    let seed_on_1 = homed_on(&pool, 1);
    let seed_on_0 = homed_on(&pool, 0);
    let query = |root: VertexId, seed: u64| SessionQuery {
        init: vec![vec![root]; 4],
        seed,
    };

    // Two consecutive dispatches whose shard-1 slice faults trip it.
    for seed in [1, 2] {
        pool.schedule_faults(1, FaultPlan::new().transient_at_launch(0));
        let d = pool.dispatch(&[query(seed_on_1, seed)]).unwrap();
        assert!(d.results[0].is_ok(), "a retried fault still serves");
    }
    let reopen = pool.breaker(1).reopen_at().expect("shard 1 tripped open");

    // While it cools down, a query homed there is shed typed.
    let d = pool.dispatch(&[query(seed_on_1, 3)]).unwrap();
    assert_eq!(
        d.results[0].as_ref().err(),
        Some(&ServeError::Overloaded {
            healthy: 2,
            replicas: 3
        })
    );
    assert_eq!(pool.metrics().sim.overload_shed, 1);
    assert_eq!(pool.report().shed, 1);

    // Traffic homed elsewhere moves the fleet clock past the reopen
    // instant; the next shard-1 query is the half-open probe.
    let mut seed = 10;
    while pool.fleet_ms() < reopen {
        pool.dispatch(&[query(seed_on_0, seed)]).unwrap();
        seed += 1;
    }
    let d = pool.dispatch(&[query(seed_on_1, seed)]).unwrap();
    assert!(d.results[0].is_ok(), "the probe is served");
    let shard1 = &pool.report().replicas[1];
    assert_eq!((shard1.trips, shard1.probes, shard1.recoveries), (1, 1, 1));
}

#[test]
fn lost_shard_sheds_typed_while_survivors_serve() {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let mut pool = ShardedPool::new(
        GpuSpec::small(),
        graph.clone(),
        Box::new(KHop::new(vec![3, 2])),
        ShardPoolConfig {
            num_shards: 3,
            ..ShardPoolConfig::default()
        },
    )
    .unwrap();

    // Kill shard 2 partway through a batch that is mid-walk on it.
    pool.schedule_faults(2, FaultPlan::new().lose_device_at_launch(2));
    let warm: Vec<SessionQuery> = (0..3)
        .map(|i| SessionQuery {
            init: (0..8).map(|s| vec![(s * 13 + i) % 256]).collect(),
            seed: 7 + u64::from(i),
        })
        .collect();
    pool.dispatch(&warm).unwrap();
    assert!(pool.sampler().shard_lost(2), "the scheduled loss landed");
    let report = pool.report();
    assert!(report.replicas[2].lost);
    assert!(
        report.walkers_lost > 0,
        "mid-walk walkers died with the shard"
    );

    // A query homed on the dead shard is shed with the typed error; one
    // homed on a survivor still gets bit-identical samples.
    let dead_seed = (0..256u32)
        .find(|&v| pool.sampler().owner_of(v) == 2)
        .expect("shard 2 owns vertices");
    let live_seed = (0..256u32)
        .find(|&v| pool.sampler().owner_of(v) != 2)
        .expect("survivors own vertices");
    let dead_q = SessionQuery {
        init: vec![vec![dead_seed]; 4],
        seed: 1000,
    };
    let live_q = SessionQuery {
        init: vec![vec![live_seed]; 4],
        seed: 1001,
    };
    let d = pool.dispatch(&[dead_q, live_q.clone()]).unwrap();
    assert!(
        matches!(
            d.results[0],
            Err(ServeError::ShardLost {
                shard: 2,
                shards: 3
            })
        ),
        "dead-shard query is typed, got {:?}",
        d.results[0]
    );
    let served = d.results[1].as_ref().expect("survivor query serves");
    assert_eq!(pool.metrics().sim.shard_shed, 1);
    assert_eq!(pool.report().shed, 1);

    // The survivor's samples may still cross into the dead shard and lose
    // walkers there — but they are deterministic: a replayed pool with the
    // same script produces the same store.
    let mut replay = ShardedPool::new(
        GpuSpec::small(),
        graph,
        Box::new(KHop::new(vec![3, 2])),
        ShardPoolConfig {
            num_shards: 3,
            ..ShardPoolConfig::default()
        },
    )
    .unwrap();
    replay.schedule_faults(2, FaultPlan::new().lose_device_at_launch(2));
    replay.dispatch(&warm).unwrap();
    let d2 = replay
        .dispatch(&[
            SessionQuery {
                init: vec![vec![dead_seed]; 4],
                seed: 1000,
            },
            live_q,
        ])
        .unwrap();
    assert_eq!(
        digest(served),
        digest(d2.results[1].as_ref().expect("replay serves too")),
        "degraded results replay bit-identically"
    );
}
