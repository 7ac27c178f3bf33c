//! Property-based tests over randomly generated graphs and parameters.

use proptest::prelude::*;

use nextdoor::apps::{DeepWalk, KHop};
use nextdoor::core::engine::unique::dedup_values;
use nextdoor::core::session::SamplerSession;
use nextdoor::core::{run_cpu, run_nextdoor, ProfileSummary, SamplingApp, NULL_VERTEX};
use nextdoor::gpu::algorithms::{compact, exclusive_scan, histogram, radix_sort_pairs};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::gen::{rmat, RmatParams};
use nextdoor::graph::{GraphBuilder, VertexId};
use nextdoor::serve::{FleetBatcher, PoolConfig, ReplicaPool, Request, ServeConfig};

/// An arbitrary fault script: any combination of a failed allocation, a
/// transient kernel fault and a whole-device loss, at arbitrary points.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::weighted(0.5, 0u64..5),
        proptest::option::weighted(0.5, 0u64..12),
        proptest::option::weighted(0.3, 0u64..12),
    )
        .prop_map(|(alloc, transient, lose)| {
            let mut plan = FaultPlan::new();
            if let Some(i) = alloc {
                plan = plan.fail_alloc(i);
            }
            if let Some(i) = transient {
                plan = plan.transient_at_launch(i);
            }
            if let Some(i) = lose {
                plan = plan.lose_device_at_launch(i);
            }
            plan
        })
}

/// An arbitrary small graph from an edge list.
fn arb_graph() -> impl Strategy<Value = nextdoor::graph::Csr> {
    (
        2usize..64,
        proptest::collection::vec((0u32..64, 0u32..64), 1..256),
    )
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(64).undirected(true);
            let _ = n;
            for (s, d) in edges {
                b.push_edge(s, d);
            }
            b.build().expect("endpoints in range")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gpu_scan_matches_std(data in proptest::collection::vec(0u32..1000, 0..2000)) {
        let mut gpu = Gpu::new(GpuSpec::small());
        let input = gpu.to_device(&data);
        let (out, total) = exclusive_scan(&mut gpu, &input);
        let mut acc = 0u32;
        for (i, &v) in data.iter().enumerate() {
            prop_assert_eq!(out.as_slice()[i], acc);
            acc += v;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn gpu_sort_matches_std(
        keys in proptest::collection::vec(0u32..100_000, 1..1500)
    ) {
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let kd = gpu.to_device(&keys);
        let vd = gpu.to_device(&vals);
        let (sk, sv) = radix_sort_pairs(&mut gpu, &kd, &vd, 100_000);
        let mut expect: Vec<(u32, u32)> =
            keys.iter().cloned().zip(vals.iter().cloned()).collect();
        expect.sort_by_key(|&(k, v)| (k, v)); // stable == sort by (key, idx)
        let got: Vec<(u32, u32)> = sk
            .as_slice()
            .iter()
            .cloned()
            .zip(sv.as_slice().iter().cloned())
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn gpu_histogram_matches_std(
        keys in proptest::collection::vec(0u32..64, 0..2000)
    ) {
        let mut gpu = Gpu::new(GpuSpec::small());
        let kd = gpu.to_device(&keys);
        let bins = histogram(&mut gpu, &kd, 64);
        let mut expect = vec![0u32; 64];
        for &k in &keys {
            expect[k as usize] += 1;
        }
        prop_assert_eq!(bins.as_slice(), expect.as_slice());
    }

    #[test]
    fn gpu_compact_matches_filter(
        pairs in proptest::collection::vec((0u32..100, proptest::bool::ANY), 0..1500)
    ) {
        let data: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let flags: Vec<u32> = pairs.iter().map(|p| u32::from(p.1)).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let dd = gpu.to_device(&data);
        let fd = gpu.to_device(&flags);
        let (out, count) = compact(&mut gpu, &dd, &fd);
        let expect: Vec<u32> = pairs.iter().filter(|p| p.1).map(|p| p.0).collect();
        prop_assert_eq!(count, expect.len());
        prop_assert_eq!(out.as_slice(), expect.as_slice());
    }

    #[test]
    fn walks_only_traverse_edges(g in arb_graph(), seed in 0u64..1000) {
        let init: Vec<Vec<VertexId>> = (0..8).map(|i| vec![i * 7 % 64]).collect();
        let res = run_cpu(&g, &DeepWalk::new(6), &init, seed).unwrap();
        for s in res.store.final_samples() {
            for w in s.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]), "non-edge {} -> {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn khop_children_descend_from_transits(g in arb_graph(), seed in 0u64..1000) {
        let init: Vec<Vec<VertexId>> = (0..6).map(|i| vec![i * 11 % 64]).collect();
        let res = run_cpu(&g, &KHop::new(vec![3, 2]), &init, seed).unwrap();
        if res.store.num_steps() < 2 {
            // Every root was a dead end: nothing to check.
            return Ok(());
        }
        for s in 0..6 {
            let hop1 = &res.store.step_values(0).values[s * 3..(s + 1) * 3];
            let hop2 = &res.store.step_values(1).values[s * 6..(s + 1) * 6];
            for (i, &v) in hop2.iter().enumerate() {
                if v != NULL_VERTEX {
                    let t = hop1[i / 2];
                    prop_assert!(t != NULL_VERTEX);
                    prop_assert!(g.has_edge(t, v));
                }
            }
        }
    }

    #[test]
    fn engines_agree_on_random_graphs(g in arb_graph(), seed in 0u64..1000) {
        let init: Vec<Vec<VertexId>> = (0..12).map(|i| vec![i as u32 * 5 % 64]).collect();
        let app = KHop::new(vec![4, 2]);
        let cpu = run_cpu(&g, &app, &init, seed).unwrap();
        let mut gpu = Gpu::new(GpuSpec::small());
        let nd = run_nextdoor(&mut gpu, &g, &app, &init, seed).unwrap();
        prop_assert_eq!(cpu.store.final_samples(), nd.store.final_samples());
    }

    #[test]
    fn faulty_runs_never_panic_and_ok_runs_match_clean(
        g in arb_graph(),
        seed in 0u64..500,
        plan in arb_fault_plan()
    ) {
        // The robustness contract: under ANY scripted fault plan, a run
        // either recovers completely (samples byte-identical to a
        // fault-free run) or surfaces a typed error — it never panics and
        // never silently returns different samples.
        let init: Vec<Vec<VertexId>> = (0..8).map(|i| vec![i * 9 % 64]).collect();
        let apps: Vec<Box<dyn SamplingApp>> = vec![
            Box::new(DeepWalk::new(5)),
            Box::new(KHop::new(vec![3, 2])),
        ];
        for app in &apps {
            let mut clean_gpu = Gpu::new(GpuSpec::small());
            let clean = run_nextdoor(&mut clean_gpu, &g, app.as_ref(), &init, seed).unwrap();
            let mut gpu = Gpu::new(GpuSpec::small());
            gpu.inject_faults(plan.clone());
            // A typed error is an acceptable outcome; an Ok run must match
            // the fault-free samples exactly.
            if let Ok(res) = run_nextdoor(&mut gpu, &g, app.as_ref(), &init, seed) {
                prop_assert_eq!(res.store.final_samples(), clean.store.final_samples());
            }
        }
    }

    #[test]
    fn served_faulty_fleet_successes_match_fault_free_runs(
        seed in 0u64..500,
        plan in arb_fault_plan()
    ) {
        // The serving-tier robustness contract, end to end: under ANY
        // scripted fault plan on one replica of a two-replica pool, every
        // request the fleet reports as successful carries samples
        // byte-identical to a fault-free run — at any simulator worker
        // count. Failures may only be typed errors, never different
        // samples and never a panic.
        let g = rmat(7, 900, RmatParams::SKEWED, 5);
        let init: Vec<Vec<VertexId>> = (0..6).map(|i| vec![i * 13 % 128]).collect();
        let app = || -> Box<dyn SamplingApp + Send> { Box::new(KHop::new(vec![3, 2])) };
        let mut outcome_digests: Vec<Vec<Option<String>>> = Vec::new();
        for host_threads in [1usize, 4] {
            let mut spec = GpuSpec::small();
            spec.host_threads = host_threads;
            let mut solo = SamplerSession::new(spec.clone(), g.clone(), app()).unwrap();
            let devices = vec![(Gpu::new(spec.clone()), app()), (Gpu::new(spec.clone()), app())];
            let pool = ReplicaPool::new(devices, &g, PoolConfig::default()).unwrap();
            let mut fleet = FleetBatcher::new(pool, ServeConfig::default()).unwrap();
            // Scheduled relative to current traffic, after the graph
            // uploads — so every generated plan lands on live serving
            // traffic instead of being swallowed by session setup.
            fleet.pool_mut().schedule_faults(0, plan.clone());
            for r in 0..4u64 {
                fleet.submit(Request::new(init.clone(), seed + r)).unwrap();
            }
            let served = fleet.drain();
            // Every admitted request got an outcome.
            prop_assert_eq!(served.len(), 4);
            let mut digests = Vec::new();
            for (_, outcome) in served.iter() {
                match outcome {
                    Ok(resp) => {
                        let q = seed + digests.len() as u64;
                        let clean = solo.query(&init, q).unwrap();
                        // A successful response must match the
                        // fault-free samples.
                        prop_assert_eq!(
                            resp.store.final_samples(),
                            clean.store.final_samples()
                        );
                        digests.push(Some(format!("{:?}", resp.store.final_samples())));
                    }
                    Err(_) => digests.push(None),
                }
            }
            outcome_digests.push(digests);
        }
        // Fleet outcomes are identical across simulator worker counts.
        prop_assert_eq!(&outcome_digests[0], &outcome_digests[1]);
    }

    #[test]
    fn dedup_is_sorted_unique_nullpadded(
        values in proptest::collection::vec(
            proptest::option::weighted(0.8, 0u32..50), 1..200
        ),
        slots in 1usize..16
    ) {
        let mut vals: Vec<u32> = values
            .iter()
            .map(|o| o.unwrap_or(NULL_VERTEX))
            .collect();
        let ns = vals.len() / slots;
        if ns == 0 {
            return Ok(());
        }
        vals.truncate(ns * slots);
        let original = vals.clone();
        dedup_values(&mut vals, slots, ns);
        for s in 0..ns {
            let chunk = &vals[s * slots..(s + 1) * slots];
            let live: Vec<u32> =
                chunk.iter().cloned().filter(|&v| v != NULL_VERTEX).collect();
            // Sorted and unique.
            prop_assert!(live.windows(2).all(|w| w[0] < w[1]));
            // NULLs only at the tail.
            let first_null = chunk.iter().position(|&v| v == NULL_VERTEX);
            if let Some(p) = first_null {
                prop_assert!(chunk[p..].iter().all(|&v| v == NULL_VERTEX));
            }
            // Same value set as the original chunk.
            let mut expect: Vec<u32> = original[s * slots..(s + 1) * slots]
                .iter()
                .cloned()
                .filter(|&v| v != NULL_VERTEX)
                .collect();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(live, expect);
        }
    }
}

/// Tokens of the kernel-report grammar `from_kernel_report_json` scans for.
const REPORT_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    " ",
    "\"kernels\"",
    "{\"name\"",
    ":\"nextdoor_grid\"",
    "\"ms\"",
    "\"avg_occupancy\"",
    "\"multiprocessor_activity\"",
    "0.25",
    "-1e3",
    "7",
    "\u{e9}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Profile JSON is a public input: any string of report tokens parses
    /// or fails typed, never panics.
    #[test]
    fn kernel_report_parser_returns_on_any_token_string(
        picks in proptest::collection::vec(0usize..REPORT_TOKENS.len(), 0..40)
    ) {
        let json: String = picks.iter().map(|&i| REPORT_TOKENS[i]).collect();
        let _ = ProfileSummary::from_kernel_report_json(&json);
    }
}
