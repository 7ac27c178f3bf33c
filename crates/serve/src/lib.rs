//! Sampling-as-a-service over the NextDoor engine.
//!
//! Graph-ML training loops ask for samples continuously; paying graph
//! upload and engine setup per call wastes most of the GPU's time (the
//! paper's end-to-end integration keeps sampling state resident across
//! training iterations, §8). This crate serves sampling queries from
//! persistent state:
//!
//! * [`SamplerSession`](nextdoor_core::session::SamplerSession)
//!   (in `nextdoor-core`) uploads the graph once and answers many
//!   queries, including *fused* multi-query batches that are bit-identical
//!   to standalone runs.
//! * One [`Batcher<D>`](Batcher) owns everything between a client and a
//!   device: deterministic admission control (bounded queue, eager input +
//!   config validation), width-class batch formation with
//!   earliest-deadline-first scheduling ([`Priority`] breaks ties) up to a
//!   batch cap, per-request deadlines on the simulated clock (expired
//!   requests are shed before touching the device), degradation shedding
//!   when the backend loses capacity, and typed per-request errors
//!   ([`ServeError`]). It records every request-level fact (admission,
//!   queue wait, completion, `service_ms`/`total_ms`); its [`Dispatch`]
//!   backend records only batch-level ones and returns one
//!   [`PoolResponse`] per batch: one result per query, in order. The
//!   backend is one of three:
//!   - [`SessionBackend`]: a lone warm session — [`MicroBatcher`];
//!   - [`ReplicaPool`]: the fault-tolerant tier — [`FleetBatcher`]: N
//!     session replicas of the same graph behind a deterministic router
//!     with retry/backoff, hedging and per-replica circuit breakers
//!     ([`CircuitBreaker`]), recording every recovery decision in a
//!     [`FleetReport`]. All of it runs on the simulated fleet clock, so
//!     chaos runs are bit-identical at any host thread count;
//!   - [`ShardedPool`]: the sharded tier — `Batcher<ShardedPool>`: the
//!     graph **partitioned** across N devices instead of replicated, with
//!     partition-aware routing, cross-shard walker hand-off in
//!     deterministic super-steps, per-shard circuit breakers, and typed
//!     [`ServeError::ShardLost`] shedding, in the query's own result slot,
//!     when its home shard is permanently gone. Samples stay bit-identical
//!     to single-device runs.
//! * [`SampleServer`] is a scheduler thread that burst-collects concurrent
//!   client requests into a batcher and mails each result back through a
//!   [`Ticket`]. It is generic over a [`BatchEngine`], which every batcher
//!   implements.
//!
//! ```
//! use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
//! use nextdoor_core::session::SamplerSession;
//! use nextdoor_gpu::GpuSpec;
//! use nextdoor_graph::gen::{rmat, RmatParams};
//! use nextdoor_serve::{MicroBatcher, Request, SampleServer, ServeConfig};
//!
//! struct Walk;
//! impl SamplingApp for Walk {
//!     fn name(&self) -> &'static str { "walk" }
//!     fn steps(&self) -> Steps { Steps::Fixed(3) }
//!     fn sample_size(&self, _step: usize) -> usize { 1 }
//!     fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
//!         let d = ctx.num_edges();
//!         if d == 0 { return None; }
//!         let i = ctx.rand_range(d);
//!         Some(ctx.src_edge(i))
//!     }
//! }
//!
//! let graph = rmat(8, 1200, RmatParams::SKEWED, 1);
//! let session = SamplerSession::new(GpuSpec::small(), graph, Box::new(Walk))
//!     .expect("graph fits on the device");
//! let batcher = MicroBatcher::new(session, ServeConfig::default())
//!     .expect("default config is valid");
//! let server = SampleServer::start(batcher);
//!
//! // Requests of *different* widths (vertices per sample) are welcome:
//! // the batcher groups them into width classes, one fused launch each.
//! let client = server.client();
//! let tickets: Vec<_> = (0..4)
//!     .map(|seed| {
//!         let width = 1 + (seed as usize % 2);
//!         let init = (0..8).map(|i| vec![i as u32; width]).collect();
//!         client.submit(Request::new(init, seed)).expect("server is up")
//!     })
//!     .collect();
//! for t in tickets {
//!     let resp = t.wait().expect("valid request, no deadline");
//!     assert_eq!(resp.store.num_samples(), 8);
//! }
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod batcher;
pub mod error;
pub mod health;
pub mod metrics;
pub mod replica;
pub mod server;
pub mod shard;
pub mod trace;

pub use batcher::{
    Batcher, Dispatch, FleetBatcher, MicroBatcher, Priority, Request, RequestId, RequestLatency,
    Response, ServeConfig, SessionBackend,
};
pub use error::ServeError;
pub use health::{BreakerConfig, BreakerState, CircuitBreaker};
pub use metrics::{
    Histogram, PriorityMetrics, ServeMetrics, SimMetrics, TuningMetrics, DEPTH_BOUNDS,
    LATENCY_BOUNDS_MS, SIZE_BOUNDS, WIDTH_BOUNDS,
};
pub use replica::{FleetReport, PoolConfig, PoolResponse, ReplicaPool, ReplicaStats};
pub use server::{BatchEngine, RequestOutcome, SampleServer, ServeClient, Ticket};
pub use shard::{ShardPoolConfig, ShardedPool};
pub use trace::{write_fleet_trace, Span, SpanKind, Tracer};
